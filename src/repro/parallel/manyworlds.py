"""Vectorized many-worlds fabric engine: N seeds as one array program.

A Monte Carlo sweep over seeds has, until now, meant ``n_worlds`` full
scalar runs -- one Python quantum loop each -- so confidence intervals
at useful scale (hundreds to thousands of seeds) were unaffordable.
This module advances ``n_worlds`` *independent* runs in lock-step:
queue state, traffic counters, and per-world statistics live in numpy
arrays of shape ``(n_worlds, ...)``, and each routing quantum is one
vectorized step (refill -> batch allocation -> stats scatter) instead
of ``n_worlds`` interpreter loops.

What makes this exact rather than approximate:

* every traffic draw is counter-based (:mod:`repro.traffic.rng`): a
  pure function of ``(seed, stream, counter)``, so a ``[n_worlds]``
  lane of seeds plus ``[n_worlds, ports]`` counter arrays reproduces
  each world's scalar draw stream bit-for-bit (:class:`VecSpecModel`);
* the allocation rule is shared lookup tensors
  (:meth:`~repro.core.allocator.CompiledAllocator.lookup_tensors`)
  indexed per world: the token is global (all worlds rotate in
  lock-step from quantum 0), so one ``[n, n, C]`` tensor serves every
  world (:meth:`~repro.core.allocator.CompiledAllocator.batch_grants`);
* packets are single-fragment whenever the size distribution fits one
  quantum, so a world x port queue slot is just (valid, dest, words).

Correctness contract (the same one every fast path in this repo
honors): **world 0 is bit-identical to the scalar fabric engine** with
``force_counter=True`` sources, and world ``w`` to a scalar run seeded
``seeds.world_seed(config.seed, w)`` -- property-tested in
``tests/test_manyworlds.py``.  Configurations the array program cannot
represent (fault plans, telemetry recording, replay traces,
multi-fragment packets, >64 link bits) **fall back loudly** to per-world
scalar runs via :func:`run_worlds`; :func:`supports` is the fallback
matrix (documented in DESIGN.md section 12).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.config import SimConfig
from repro.core.allocator import Allocator, compiled_allocator
from repro.core.fabricsim import FabricStats
from repro.core.phases import (
    DEFAULT_TIMING,
    PhaseTiming,
    idle_quantum_cycles,
    quantum_cycles,
)
from repro.core.ring import RingGeometry
from repro.engines import FabricEngine, RunResult, WorkloadSpec
from repro.metrics.latency import _percentile_sorted
from repro.seeds import spec_seed, world_seed
from repro.traffic.model import (
    _S_ARRIVAL,
    _S_BURST,
    _S_DURATION,
    _S_PATTERN,
    _S_SIZE,
    _STRIDE,
)
from repro.traffic.rng import draw_float, geometric_length, pareto_length
from repro.traffic.spec import TrafficSpec, resolve_traffic

#: Schema tag on :meth:`ManyWorldsResult.to_dict`.
RESULT_SCHEMA = "repro-manyworlds/1"

#: Metrics an envelope is computed over by default.
ENVELOPE_METRICS = ("gbps", "mpps", "delivered_packets", "delivered_words")

# ---------------------------------------------------------------------------
# Vectorized counter-based randomness (repro.traffic.rng over world lanes).
# ---------------------------------------------------------------------------
_M64 = (1 << 64) - 1
_A = np.uint64(0x9E3779B97F4A7C15)
_B_INT = 0xBF58476D1CE4E5B9
_C = np.uint64(0x94D049BB133111EB)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix64(x: np.ndarray) -> np.ndarray:
    """:func:`repro.traffic.rng.mix64` over a uint64 array."""
    x = (x ^ (x >> _S30)) * _MIX_B
    x = (x ^ (x >> _S27)) * _MIX_C
    return x ^ (x >> _S31)


class VecSpecModel:
    """:class:`~repro.traffic.model.SpecModel` over ``n_worlds`` lanes.

    Same spec, same per-port draw streams and counters -- but the
    counters are ``[n_worlds, ports]`` arrays and a poll is one masked
    column operation.  Lane ``w`` consumes exactly the draws the scalar
    model seeded ``seeds[w]`` consumes (the draw-count bookkeeping in
    each ``_*_col`` helper mirrors the scalar branch structure, including
    the quirks: hotspot consumes 1 draw when hot else 2, bursty's burst
    draw is short-circuited away while no train is active, on/off
    duration draws happen only at state flips).

    The one scalar escape hatch: on/off *durations* go through
    ``math.log`` / ``**`` in the scalar model, and numpy's
    transcendentals are not guaranteed ULP-identical to libm's -- so the
    rare worlds needing a new duration this poll (one draw per on/off
    period) take a per-element Python loop through the exact scalar
    functions.
    """

    def __init__(self, spec: TrafficSpec, n: int, seeds: Sequence[int]):
        if spec.kind != "synthetic":
            raise ValueError("VecSpecModel realizes synthetic specs only")
        if n < 2:
            raise ValueError("need at least two ports")
        pat = spec.pattern
        if pat.kind in ("hotspot",) and pat.hot_port >= n:
            raise ValueError(
                f"hot_port {pat.hot_port} out of range for {n} ports"
            )
        self.spec = spec
        self.n = n
        self.seeds = np.array([spec_seed(s) for s in seeds], dtype=np.uint64)
        self.w = len(seeds)
        self.gate = spec.arrivals.kind != "saturated"
        w = self.w
        # Per-(world, port) counters -- the entire mutable state, int64
        # (cast to uint64 at draw time; they never approach 2**63).
        self._pat = np.zeros((w, n), dtype=np.int64)
        self._size = np.zeros((w, n), dtype=np.int64)
        self._arr = np.zeros((w, n), dtype=np.int64)
        self._dur = np.zeros((w, n), dtype=np.int64)
        self._offered = np.zeros((w, n), dtype=np.int64)
        self._cur = np.full((w, n), -1, dtype=np.int64)  #: bursty train (-1 = None)
        self._on = np.zeros((w, n), dtype=bool)
        self._left = np.zeros((w, n), dtype=np.int64)
        # Whole-grid draw machinery: precompute the seed term per world
        # and the (stream * _B + 1) term per (port, sub-stream), so one
        # [w, n] grid draw is a handful of array ops instead of n column
        # loops (the step loop's cost is numpy call count, not data).
        self._seed_term = (self.seeds * _A)[:, None]  # [w, 1]
        self._cols = np.arange(n, dtype=np.int64)[None, :]  # [1, n]

        def bases(sub: int) -> np.ndarray:
            return np.array(
                [((p * _STRIDE + sub) * _B_INT + 1) & _M64 for p in range(n)],
                dtype=np.uint64,
            )[None, :]

        self._base_pat = bases(_S_PATTERN)
        self._base_size = bases(_S_SIZE)
        self._base_arr = bases(_S_ARRIVAL)
        self._base_burst = bases(_S_BURST)

    # -- whole-grid draws ----------------------------------------------
    def _grid_u64(self, base: np.ndarray, k: np.ndarray) -> np.ndarray:
        """draw_u64 over the full (world, port) grid: ``k`` is the per-
        lane counter, ``base`` one of the per-column stream terms."""
        return _mix64(self._seed_term + k.astype(np.uint64) * _C + base)

    def _grid_float(self, base: np.ndarray, k: np.ndarray) -> np.ndarray:
        return self._grid_u64(base, k) / np.float64(1 << 64)

    def _grid_int(self, base: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
        return (self._grid_u64(base, k) % np.uint64(n)).astype(np.int64)

    # -- arrival gate ---------------------------------------------------
    def _offers_grid(self, m: np.ndarray) -> np.ndarray:
        """Arrival gate over the grid under poll mask ``m``; returned
        lanes are meaningful only where ``m`` (counters advance exactly
        on the lanes the scalar model would consume draws for)."""
        a = self.spec.arrivals
        if not self.gate:
            return m
        if a.kind == "bernoulli":
            u = self._grid_float(self._base_arr, self._arr)
            self._arr += m
            return u < a.p
        # onoff: flip state + draw a fresh duration where exhausted.
        # Durations go through math.log/** in the scalar model, whose
        # libm results numpy does not promise to match ULP-for-ULP, so
        # the (rare: once per on/off period) lanes needing a new duration
        # run the exact scalar functions.
        need = m & (self._left == 0)
        if need.any():
            for w, p in zip(*(idx.tolist() for idx in np.nonzero(need))):
                on = not self._on[w, p]
                self._on[w, p] = on
                mean = a.mean_on if on else a.mean_off
                k = int(self._dur[w, p])
                self._dur[w, p] = k + 1
                u = draw_float(int(self.seeds[w]), p * _STRIDE + _S_DURATION, k)
                self._left[w, p] = (
                    pareto_length(u, mean, a.alpha)
                    if a.heavy
                    else geometric_length(u, mean)
                )
        self._left -= m
        on = self._on
        if a.p >= 1.0:
            return on
        u = self._grid_float(self._base_arr, self._arr)
        self._arr += m & on
        return on & (u < a.p)

    # -- destinations ---------------------------------------------------
    def _uniform_dest_grid(self, k: np.ndarray, exclude_self: bool) -> np.ndarray:
        if not exclude_self:
            return self._grid_int(self._base_pat, k, self.n)
        d = self._grid_int(self._base_pat, k, self.n - 1)
        return d + (d >= self._cols)

    def _dest_grid(self, mo: np.ndarray) -> np.ndarray:
        pat = self.spec.pattern
        if pat.kind == "permutation":
            return np.broadcast_to((self._cols + pat.shift) % self.n, mo.shape)
        if pat.kind == "uniform":
            d = self._uniform_dest_grid(self._pat, pat.exclude_self)
            self._pat += mo
            return d
        if pat.kind == "hotspot":
            if pat.drift_packets:
                hot = (pat.hot_port + self._offered // pat.drift_packets) % self.n
            else:
                hot = pat.hot_port
            is_hot = self._grid_float(self._base_pat, self._pat) < pat.p_hot
            spill = self._grid_int(self._base_pat, self._pat + 1, self.n)
            # Scalar consumption: 1 draw on the hot branch, 2 otherwise.
            self._pat += np.where(is_hot, 1, 2) * mo
            return np.where(is_hot, hot, spill)
        # bursty: the burst-continuation draw exists only while a train
        # is active (the scalar `cur is None or ...` short-circuit).
        has_train = self._cur >= 0
        u_b = self._grid_float(self._base_burst, self._pat)
        burst_drawn = mo & has_train
        trigger = mo & (~has_train | (u_b < 1.0 / pat.mean_burst))
        fresh = self._uniform_dest_grid(
            self._pat + burst_drawn, pat.exclude_self
        )
        self._pat += burst_drawn
        self._pat += trigger
        self._cur = np.where(trigger, fresh, self._cur)
        return self._cur

    # -- packet sizes ---------------------------------------------------
    def _size_grid(self, mo: np.ndarray) -> np.ndarray:
        s = self.spec.sizes
        if s.kind == "fixed":
            return np.broadcast_to(np.int64(s.bytes), mo.shape)
        if s.kind == "imix":
            u = self._grid_float(self._base_size, self._size) * float(
                sum(s.IMIX_WEIGHTS)
            )
            self._size += mo
            w0, w1 = s.IMIX_WEIGHTS[0], s.IMIX_WEIGHTS[0] + s.IMIX_WEIGHTS[1]
            return np.where(
                u < w0,
                s.IMIX_SIZES[0],
                np.where(u < w1, s.IMIX_SIZES[1], s.IMIX_SIZES[2]),
            ).astype(np.int64)
        if s.kind == "uniform":
            span = s.hi // 4 - s.lo // 4 + 1
            d = self._grid_int(self._base_size, self._size, span)
            self._size += mo
            return (s.lo // 4 + d) * 4
        u = self._grid_float(self._base_size, self._size)
        self._size += mo
        return np.where(u < s.p_small, s.small, s.large).astype(np.int64)

    # -- the vector poll -----------------------------------------------
    def poll(self, need: np.ndarray):
        """One ``next_packet`` per (world, port) where ``need``.

        Returns ``(offered, dest, nbytes)``: a bool ``[w, n]`` mask of
        lanes that produced a packet this poll, with destination and
        size valid (and possibly read-only views) where the mask holds.
        """
        # Saturated arrivals offer on every poll -- skip the gate (and
        # the [w, n] mask op) entirely.
        mo = need if not self.gate else need & self._offers_grid(need)
        if not mo.any():
            z = np.zeros((self.w, self.n), dtype=np.int64)
            return mo, z, z
        dest = self._dest_grid(mo)
        nbytes = self._size_grid(mo)
        self._offered += mo
        return mo, dest, nbytes


# ---------------------------------------------------------------------------
# The fallback matrix.
# ---------------------------------------------------------------------------
def supports(config: SimConfig, workload: WorkloadSpec) -> Optional[str]:
    """None when the vectorized engine can run this cell bit-exactly;
    otherwise the human-readable reason it must fall back to scalar runs
    (the DESIGN.md section-12 fallback matrix, in code)."""
    if config.fidelity != "fabric":
        return f"fidelity {config.fidelity!r} (the vector engine is fabric-only)"
    from repro.faults.plan import resolve_plan

    if resolve_plan(workload.fault_plan) is not None:
        return "fault plan armed (quantum-granular fault state is per-world)"
    from repro.telemetry import runtime as _telemetry

    if _telemetry.RECORDER is not None:
        return "telemetry recording active (events are per-scalar-run)"
    spec = resolve_traffic(workload.effective_traffic())
    if spec is None or spec.kind != "synthetic":
        return "replay traces poll a shared cursor (synthetic specs only)"
    costs = config.cost_model()
    max_bytes = costs.max_quantum_words * costs.word_bytes
    if spec.sizes.max_bytes() > max_bytes:
        return (
            f"multi-fragment packets (sizes reach {spec.sizes.max_bytes()}B "
            f"> {max_bytes}B per quantum); queue lanes hold one fragment"
        )
    bits = config.networks * 2 * config.ports
    if bits > 64:
        return f"link bitmask needs {bits} bits; uint64 lanes top out at 64"
    return None


# ---------------------------------------------------------------------------
# The scalar reference (and fallback) path.
# ---------------------------------------------------------------------------
class _ScalarWorldEngine(FabricEngine):
    """The per-world scalar reference: the stock fabric engine, with
    counter-based sources forced so draws match the vector lanes."""

    force_counter = True


def _effective_warmup(workload: WorkloadSpec) -> int:
    return (
        workload.warmup_quanta
        if workload.warmup_quanta is not None
        else max(50, workload.quanta // 20)
    )


def scalar_world_stats(
    config: SimConfig, workload: WorkloadSpec, world: int = 0
) -> FabricStats:
    """Run one world through the scalar fabric loop; full counters.

    This is the bit-identity reference: same simulator assembly as
    :class:`~repro.engines.FabricEngine`, with ``force_counter=True``
    sources and the world's derived seed.
    """
    from repro.core.fabricsim import FabricSimulator
    from repro.traffic.build import fabric_source

    cfg = config.replace(seed=world_seed(config.seed, world))
    costs = cfg.cost_model()
    ring = RingGeometry(cfg.ports)
    sim = FabricSimulator(
        ring=ring,
        allocator=Allocator(ring, networks=cfg.networks),
        pipelined=cfg.pipelined,
        costs=costs,
        fast_forward=cfg.fast_forward,
    )
    sim.install_faults(workload.fault_plan)
    source = fabric_source(workload.effective_traffic(), cfg, force_counter=True)
    return sim.run(
        source, quanta=workload.quanta, warmup_quanta=_effective_warmup(workload)
    )


def run_scalar_world(
    config: SimConfig, workload: WorkloadSpec, world: int = 0
) -> RunResult:
    """One world as a full :class:`~repro.engines.RunResult` (the shape
    sweep rows carry)."""
    cfg = config.replace(seed=world_seed(config.seed, world))
    return _ScalarWorldEngine(cfg).run(workload)


# ---------------------------------------------------------------------------
# The vectorized engine.
# ---------------------------------------------------------------------------
class _VecWorlds:
    """State and step loop for ``n_worlds`` lock-step fabric runs."""

    def __init__(self, config: SimConfig, workload: WorkloadSpec, n_worlds: int):
        spec = resolve_traffic(workload.effective_traffic())
        self.config = config
        self.costs = costs = config.cost_model()
        self.n = n = config.ports
        self.w = n_worlds
        self.seeds = [world_seed(config.seed, w) for w in range(n_worlds)]
        self.model = VecSpecModel(spec, n, self.seeds)
        self.compiled = compiled_allocator(n, config.networks)
        self.compiled.lookup_tensors()  # build (and range-check) eagerly
        timing = (
            DEFAULT_TIMING
            if costs.quantum_ctl_overhead == DEFAULT_TIMING.control_total
            else PhaseTiming.for_model(costs)
        )
        self.ctl = quantum_cycles(0, 0, timing, config.pipelined, costs=costs)
        self.idle_cycles = idle_quantum_cycles(timing)
        self.word_bytes = costs.word_bytes
        self.token = 0  # scalar: every world rotates in lock-step
        w = n_worlds
        # Queue lanes: one head-of-line fragment per (world, port).
        self.q_valid = np.zeros((w, n), dtype=bool)
        self.q_dest = np.zeros((w, n), dtype=np.int64)
        self.q_words = np.zeros((w, n), dtype=np.int64)
        # Per-world statistics (FabricStats counters as arrays).
        self.quanta = np.zeros(w, dtype=np.int64)
        self.idle_quanta = np.zeros(w, dtype=np.int64)
        self.cycles = np.zeros(w, dtype=np.int64)
        self.delivered_words = np.zeros(w, dtype=np.int64)
        self.delivered_packets = np.zeros(w, dtype=np.int64)
        self.blocked_events = np.zeros(w, dtype=np.int64)
        self.per_port_words = np.zeros((w, n), dtype=np.int64)
        self.per_port_packets = np.zeros((w, n), dtype=np.int64)
        self.grant_histogram = np.zeros((w, n + 1), dtype=np.int64)
        self._rows = np.arange(w)

    def _step(self, measure: bool) -> None:
        # Refill: one source poll per empty (world, port) lane -- the
        # scalar loop's per-quantum _refill pass.
        need = ~self.q_valid
        if need.any():
            got, dest, nbytes = self.model.poll(need)
            if got.any():
                words = (nbytes + self.word_bytes - 1) // self.word_bytes
                self.q_valid |= got
                np.copyto(self.q_dest, dest, where=got)
                np.copyto(self.q_words, words, where=got)
        dests = np.where(self.q_valid, self.q_dest, -1)
        busy = self.q_valid.any(axis=1)
        granted, hops = self.compiled.batch_grants(dests, self.token)
        body = ((self.q_words + hops) * granted).max(axis=1)
        if measure:
            ng = granted.sum(axis=1)
            self.quanta += 1
            self.idle_quanta += ~busy
            self.cycles += np.where(busy, self.ctl + body, self.idle_cycles)
            self.blocked_events += self.q_valid.sum(axis=1) - ng
            np.add.at(
                self.grant_histogram, (self._rows[busy], ng[busy]), 1
            )
            gw = self.q_words * granted
            self.delivered_words += gw.sum(axis=1)
            self.per_port_words += gw
            self.delivered_packets += ng
            self.per_port_packets += granted
        self.q_valid &= ~granted
        self.token = (self.token + 1) % self.n

    def run(self, quanta: int, warmup_quanta: int) -> None:
        for i in range(warmup_quanta + quanta):
            self._step(measure=i >= warmup_quanta)

    def stats(self) -> List[FabricStats]:
        """Per-world :class:`FabricStats` (so gbps/mpps float semantics
        match the scalar engine exactly)."""
        out = []
        for w in range(self.w):
            st = FabricStats(num_ports=self.n, costs=self.costs)
            st.quanta = int(self.quanta[w])
            st.idle_quanta = int(self.idle_quanta[w])
            st.cycles = int(self.cycles[w])
            st.delivered_words = int(self.delivered_words[w])
            st.delivered_packets = int(self.delivered_packets[w])
            st.blocked_events = int(self.blocked_events[w])
            st.per_port_words = [int(v) for v in self.per_port_words[w]]
            st.per_port_packets = [int(v) for v in self.per_port_packets[w]]
            st.grant_histogram = [int(v) for v in self.grant_histogram[w]]
            out.append(st)
        return out


# ---------------------------------------------------------------------------
# Results: per-world stats reduced to statistical envelopes.
# ---------------------------------------------------------------------------
def envelope(values: Sequence[float]) -> Dict[str, float]:
    """mean / stddev / 95% CI half-width / percentiles over world values.

    ``ci95`` is the normal-approximation half-width ``1.96 * s / sqrt(K)``
    (sample stddev, ddof=1); 0.0 for a single world."""
    arr = np.asarray(values, dtype=np.float64)
    k = len(arr)
    std = float(arr.std(ddof=1)) if k > 1 else 0.0
    xs = np.sort(arr)
    return {
        "n": k,
        "mean": float(arr.mean()),
        "std": std,
        "ci95": 1.96 * std / math.sqrt(k) if k > 1 else 0.0,
        "p50": _percentile_sorted(xs, 50),
        "p99": _percentile_sorted(xs, 99),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


@dataclass
class ManyWorldsResult:
    """K independent seeds' worth of fabric statistics, plus envelopes."""

    config: SimConfig
    workload: WorkloadSpec
    n_worlds: int
    vectorized: bool
    fallback_reason: Optional[str]
    elapsed_s: float
    seeds: List[int]
    #: Per-world measurements: :class:`FabricStats` on the vectorized /
    #: fabric-scalar paths, full :class:`~repro.engines.RunResult` on the
    #: generic-engine fallback -- both expose the envelope metrics.
    stats: List[Any] = field(default_factory=list)

    def metric(self, name: str) -> np.ndarray:
        """Per-world values of a :class:`FabricStats` field/property."""
        return np.array([getattr(s, name) for s in self.stats], dtype=np.float64)

    def envelope(self, name: str) -> Dict[str, float]:
        return envelope(self.metric(name))

    def envelopes(
        self, metrics: Sequence[str] = ENVELOPE_METRICS
    ) -> Dict[str, Dict[str, float]]:
        return {m: self.envelope(m) for m in metrics}

    @property
    def world0(self) -> FabricStats:
        return self.stats[0]

    def world_result(self, w: int = 0) -> RunResult:
        """World ``w`` as the :class:`~repro.engines.RunResult` schema
        sweep rows carry (so ``--worlds`` rows keep a ``result`` entry
        shaped exactly like single-run rows)."""
        st = self.stats[w]
        if isinstance(st, RunResult):
            return st
        return RunResult(
            fidelity="fabric",
            cycles=st.cycles,
            delivered_packets=st.delivered_packets,
            delivered_words=st.delivered_words,
            gbps=st.gbps,
            mpps=st.mpps,
            per_port_packets=list(st.per_port_packets),
            latency={},
            config=self.config.replace(seed=self.seeds[w]),
            workload=self.workload,
            extra={
                "quanta": st.quanta,
                "idle_quanta": st.idle_quanta,
                "blocked_events": st.blocked_events,
                "mean_grants_per_quantum": st.mean_grants_per_quantum,
            },
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RESULT_SCHEMA,
            "n_worlds": self.n_worlds,
            "vectorized": self.vectorized,
            "fallback_reason": self.fallback_reason,
            "elapsed_s": self.elapsed_s,
            "base_seed": self.config.seed,
            "envelopes": self.envelopes(),
            "worlds": [
                {
                    "seed": seed,
                    "gbps": st.gbps,
                    "mpps": st.mpps,
                    "cycles": st.cycles,
                    "delivered_packets": st.delivered_packets,
                    "delivered_words": st.delivered_words,
                }
                for seed, st in zip(self.seeds, self.stats)
            ],
        }


def _world_under_telemetry(config: SimConfig, world: int, run_fn):
    """Run one scalar world; with an outer recorder active, record it
    into a fresh world-local recorder and fold the state back in tagged
    ``worker=world`` -- K worlds' telemetry merges exactly like K
    distributed workers' (the many-worlds half of the distributed
    telemetry plane)."""
    from repro.telemetry import runtime as _telemetry

    outer = _telemetry.RECORDER
    if outer is None:
        return run_fn()
    with _telemetry.capture(**outer.config()) as tel:
        if outer.journeys.port_classes:
            tel.journeys.set_port_classes(outer.journeys.port_classes)
        result = run_fn()
    outer.merge_state(
        tel.to_state(
            worker=world,
            meta={"world": world, "seed": world_seed(config.seed, world)},
        )
    )
    return result


def run_worlds(
    config: SimConfig,
    workload: WorkloadSpec,
    n_worlds: int,
    force_scalar: bool = False,
) -> ManyWorldsResult:
    """Run ``n_worlds`` independent seeds of one (config, workload) cell.

    Vectorized when :func:`supports` allows; otherwise (or with
    ``force_scalar``) falls back -- loudly, via a ``UserWarning`` naming
    the reason -- to ``n_worlds`` scalar runs with the same derived
    seeds, so callers always get the same :class:`ManyWorldsResult`
    shape and the same world seeds either way.  An active telemetry
    recorder is one such reason (the uint lanes have no event stream);
    each fallback world then records into a world-local recorder whose
    state folds back into the active one tagged ``worker=world``.
    """
    if n_worlds < 1:
        raise ValueError("need at least one world")
    reason = "forced scalar" if force_scalar else supports(config, workload)
    seeds = [world_seed(config.seed, w) for w in range(n_worlds)]
    start = time.perf_counter()
    if reason is None:
        worlds = _VecWorlds(config, workload, n_worlds)
        worlds.run(workload.quanta, _effective_warmup(workload))
        stats = worlds.stats()
    else:
        if not force_scalar:
            warnings.warn(
                f"many-worlds engine cannot vectorize this cell ({reason}); "
                f"falling back to {n_worlds} scalar runs",
                stacklevel=2,
            )
        if config.fidelity == "fabric":
            stats = [
                _world_under_telemetry(
                    config, w, lambda: scalar_world_stats(config, workload, w)
                )
                for w in range(n_worlds)
            ]
        else:
            # Non-fabric cells run each world through the cell's actual
            # engine (router/wordlevel/... dispatch), not the fabric loop.
            from repro.engines import run_config

            stats = [
                _world_under_telemetry(
                    config, w,
                    lambda: run_config(config.replace(seed=s), workload),
                )
                for w, s in enumerate(seeds)
            ]
    elapsed = time.perf_counter() - start
    return ManyWorldsResult(
        config=config,
        workload=workload,
        n_worlds=n_worlds,
        vectorized=reason is None,
        fallback_reason=reason,
        elapsed_s=elapsed,
        seeds=seeds,
        stats=stats,
    )
