"""Vectorized many-worlds fabric engine: N seeds as one array program.

A Monte Carlo sweep over seeds has, until now, meant ``n_worlds`` full
scalar runs -- one Python quantum loop each -- so confidence intervals
at useful scale (hundreds to thousands of seeds) were unaffordable.
This module advances ``n_worlds`` *independent* runs in lock-step:
queue state, traffic streams, and per-world statistics live in numpy
arrays of shape ``(ports, n_worlds)`` (or ``(n_worlds,)``), and each
routing quantum is one vectorized step (refill -> batch allocation ->
stats fold) instead of ``n_worlds`` interpreter loops.

What makes this exact rather than approximate:

* every traffic draw is counter-based (:mod:`repro.traffic.rng`): a
  pure function of ``(seed, stream, counter)``, so ``[ports,
  n_worlds]`` arrays of stream values reproduce each world's scalar
  draw stream bit-for-bit (:class:`VecSpecModel`);
* the allocation rule is shared lookup tensors
  (:meth:`~repro.core.allocator.CompiledAllocator.lookup_tensors`)
  indexed per world: the token is global (all worlds rotate in
  lock-step from quantum 0), so one ``[n, n, C]`` tensor serves every
  world (:meth:`~repro.core.allocator.CompiledAllocator.batch_grants`);
* packets are single-fragment whenever the size distribution fits one
  quantum, so a port x world queue slot is just (dest, words), with
  dest -1 when it is empty.

Correctness contract (the same one every fast path in this repo
honors): **world 0 is bit-identical to the scalar fabric engine**, and
world ``w`` to a scalar run seeded
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
from typing import Any, Callable, Dict, List, Optional, Sequence

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
    _TWO64,
)
from repro.traffic.model import _streams as _port_streams
from repro.traffic.rng import _A as _A_INT
from repro.traffic.rng import _B as _B_INT
from repro.traffic.rng import _C as _C_INT
from repro.traffic.rng import geometric_length, pareto_length
from repro.traffic.spec import TrafficSpec, resolve_traffic

#: Metrics an envelope is computed over by default.
ENVELOPE_METRICS = ("gbps", "mpps", "delivered_packets", "delivered_words")

# ---------------------------------------------------------------------------
# Vectorized counter-based randomness (repro.traffic.rng over world lanes).
# ---------------------------------------------------------------------------
_A = np.uint64(_A_INT)
_B = np.uint64(_B_INT)
_C = np.uint64(_C_INT)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix64(xs: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`repro.traffic.rng.mix64` of every element of ``xs``, into
    ``out`` (``tmp`` is scratch of the same shape)."""
    np.right_shift(xs, _S30, tmp)
    np.bitwise_xor(xs, tmp, out)
    np.multiply(out, _B, out)
    np.right_shift(out, _S27, tmp)
    np.bitwise_xor(out, tmp, out)
    np.multiply(out, _C, out)
    np.right_shift(out, _S31, tmp)
    np.bitwise_xor(out, tmp, out)
    return out


def _threshold(pred: Callable[[int], bool]) -> int:
    """The least raw draw ``x`` in ``[0, 2**64]`` at which ``pred`` fails.

    ``pred`` is one of the scalar model's own float tests on a raw
    64-bit draw (``x / 2**64 < p``, IMIX's ``x / 2**64 * total <
    bound``).  Each is monotone in ``x`` -- ``float(x)``, the exact
    division by a power of two and a multiplication by a positive
    constant never decrease -- so ``x < T`` holds exactly when ``pred(x)``
    does, and a lane's draw is tested with one integer compare instead
    of a float conversion.  Found by bisection, once per spec.
    """
    lo, hi = 0, 1 << 64
    while lo < hi:
        mid = (lo + hi) >> 1
        if pred(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _below(p: float) -> np.uint64:
    """The integer threshold of the scalar test ``x / 2**64 < p``."""
    return np.uint64(_threshold(lambda x: x / _TWO64 < p))


def _lanes(flags: np.ndarray) -> np.ndarray:
    """A bool lane array as a poll mask: -1 where set, 0 elsewhere."""
    return np.negative(flags, dtype=np.int64)


class VecSpecModel:
    """:class:`~repro.traffic.model.SpecModel` over ``n_worlds`` lanes.

    Same spec, same per-port draw streams -- but every stream value is a
    lane of an ``[n, n_worlds]`` uint64 array (port-major, like the
    engine's queue lanes), stepped by ``_C`` on exactly the lanes whose
    scalar model consumes a draw, and a poll is a handful of whole-array
    operations.  The pattern, size and arrival kinds are resolved once,
    here, into one draw method each; the scalar model's float tests
    become integer thresholds (:func:`_threshold`), and the finalizer
    runs in place in scratch buffers.  Lane ``w`` consumes exactly the
    draws the scalar model seeded ``seeds[w]`` consumes, including the
    quirks: hotspot consumes 1 draw when hot else 2, bursty's burst draw
    is short-circuited away while no train is active, on/off duration
    draws happen only at state flips.

    The one scalar escape hatch: on/off *durations* go through
    ``math.log`` / ``**`` in the scalar model, and numpy's
    transcendentals are not guaranteed ULP-identical to libm's -- so the
    rare lanes needing a new duration this poll (one draw per on/off
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
        self.w = w = len(seeds)
        self.gate = spec.arrivals.kind != "saturated"
        self._shape = shape = (n, w)
        self._port = np.arange(n, dtype=np.int64)[:, None]
        self._inc = np.empty(shape, dtype=np.uint64)  #: _C where a lane draws
        self._tmp = np.empty(shape, dtype=np.uint64)  #: finalizer scratch
        self._quo = np.empty(shape, dtype=np.uint64)  #: modulo scratch
        self._dest = self._dest_fn(pat)
        self._size = self._size_fn(spec.sizes)
        self._gate = self._gate_fn(spec.arrivals) if self.gate else None

    # -- draw machinery -------------------------------------------------
    def _streams(self, sub: int) -> np.ndarray:
        """Per lane, the value draw 0 of stream ``port * _STRIDE + sub``
        feeds the finalizer: the scalar model's per-port values at seed
        0 plus each world's seed term."""
        base = np.array(_port_streams(0, self.n, sub), dtype=np.uint64)
        return base[:, None] + self.seeds[None, :] * _A

    def _mix(self, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:func:`repro.traffic.rng.mix64` of every lane of ``xs``, into
        ``out``."""
        return _mix64(xs, out, self._tmp)

    def _mod(self, u: np.ndarray, m: int) -> np.ndarray:
        """``u % m`` in place, as int64 lanes (a floor division by a
        scalar is several times cheaper than numpy's uint64 ``%``)."""
        m = np.uint64(m)
        q = self._quo
        np.floor_divide(u, m, q)
        np.multiply(q, m, q)
        np.subtract(u, q, u)
        return u.view(np.int64)

    def _uniform_fn(self, exclude_self: bool):
        """``uniform(x)``: the uniform destination drawn from stream
        values ``x``, mapped around the port itself when
        ``exclude_self`` (through a per-port table)."""
        n = self.n
        u = np.empty(self._shape, dtype=np.uint64)
        if not exclude_self:
            return lambda x: self._mod(self._mix(x, u), n)
        skip = np.array(
            [[d + (d >= p) for d in range(n - 1)] for p in range(n)],
            dtype=np.int64,
        ).ravel()
        row = self._port * (n - 1)

        def uniform(x):
            d = self._mod(self._mix(x, u), n - 1)
            return skip.take(np.add(d, row, out=d))

        return uniform

    # -- destinations: dest(got, inc) -----------------------------------
    def _dest_fn(self, pat):
        n = self.n
        if pat.kind == "permutation":
            fixed = np.broadcast_to((self._port + pat.shift) % n, self._shape)
            return lambda got, inc: fixed
        xs = self._streams(_S_PATTERN)
        if pat.kind == "uniform":
            uniform = self._uniform_fn(pat.exclude_self)

            def dest(got, inc):
                d = uniform(xs)
                np.add(xs, inc, xs)
                return d

            return dest
        if pat.kind == "hotspot":
            t_hot = _below(pat.p_hot)
            spill = self._uniform_fn(False)
            u = np.empty(self._shape, dtype=np.uint64)
            offered = np.zeros(self._shape, dtype=np.int64)

            def hotspot(got, inc):
                hot = pat.hot_port
                if pat.drift_packets:
                    hot = (hot + offered // pat.drift_packets) % n
                    offered[...] -= got
                is_hot = self._mix(xs, u) < t_hot
                d = np.where(is_hot, hot, spill(xs + _C))
                # Scalar consumption: 1 draw on the hot branch, 2 otherwise.
                np.add(xs, inc, xs)
                np.add(xs, np.where(is_hot, np.uint64(0), inc), xs)
                return d

            return hotspot
        # bursty: the burst and pattern streams share one counter, so a
        # lane's burst stream value is its pattern value plus a per-port
        # constant; the burst draw exists only while a train is active
        # (the scalar `cur is None or ...` short-circuit).
        burst = self._streams(_S_BURST) - xs
        t_new = _below(1.0 / pat.mean_burst)
        uniform = self._uniform_fn(pat.exclude_self)
        u = np.empty(self._shape, dtype=np.uint64)
        cur = np.full(self._shape, -1, dtype=np.int64)

        def bursty(got, inc):
            has_train = cur >= 0
            drawn = np.where(has_train, inc, np.uint64(0))
            keeps = has_train & (self._mix(xs + burst, u) >= t_new)
            trigger = (got != 0) & ~keeps
            fresh = uniform(xs + drawn)
            np.add(xs, drawn, xs)
            np.add(xs, np.where(trigger, inc, np.uint64(0)), xs)
            np.copyto(cur, fresh, where=trigger)
            return cur

        return bursty

    # -- packet sizes: size(inc) ----------------------------------------
    def _size_fn(self, s):
        if s.kind == "fixed":
            nbytes = np.int64(s.bytes)
            return lambda inc: nbytes
        xs = self._streams(_S_SIZE)
        u = np.empty(self._shape, dtype=np.uint64)
        if s.kind == "uniform":
            lo, span = s.lo // 4, s.hi // 4 - s.lo // 4 + 1

            def uniform(inc):
                d = self._mod(self._mix(xs, u), span)
                np.add(xs, inc, xs)
                return (d + lo) * 4

            return uniform
        if s.kind == "imix":
            # The scalar model's bisect over cumulative weights, as two
            # thresholds: below the first -> size 0, below the second ->
            # size 1, else size 2 (u rounding up to the total included).
            total = sum(s.IMIX_WEIGHTS)
            w0, w1 = s.IMIX_WEIGHTS[:2]
            t0, t1 = (
                np.uint64(_threshold(lambda x, b=b: x / _TWO64 * total < b))
                for b in (w0, w0 + w1)
            )
            sizes = np.array(s.IMIX_SIZES, dtype=np.int64)
            pick = np.empty(self._shape, dtype=np.intp)
            past = np.empty(self._shape, dtype=bool)

            def imix(inc):
                self._mix(xs, u)
                np.add(xs, inc, xs)
                np.greater_equal(u, t0, past)
                np.add(past, u >= t1, pick, dtype=np.intp)
                return sizes.take(pick)

            return imix
        t_small = _below(s.p_small)
        small, large = np.int64(s.small), np.int64(s.large)

        def bimodal(inc):
            is_small = self._mix(xs, u) < t_small
            np.add(xs, inc, xs)
            return np.where(is_small, small, large)

        return bimodal

    # -- arrival gates: got = gate(need) --------------------------------
    def _gate_fn(self, a):
        xs = self._streams(_S_ARRIVAL)
        u = np.empty(self._shape, dtype=np.uint64)
        t_p = _below(a.p)
        if a.kind == "bernoulli":
            def bernoulli(need):
                self._mix(xs, u)
                np.add(xs, need.view(np.uint64) & _C, xs)
                return need & _lanes(u < t_p)

            return bernoulli
        # onoff: flip state + draw a fresh duration where exhausted.
        durations = self._streams(_S_DURATION)
        on = np.zeros(self._shape, dtype=bool)
        left = np.zeros(self._shape, dtype=np.int64)

        if a.heavy:
            def length(v, mean):
                return pareto_length(v, mean, a.alpha)
        else:
            length = geometric_length

        def onoff(need):
            polled = need != 0
            # Durations go through math.log/** in the scalar model, whose
            # libm results numpy does not promise to match ULP-for-ULP, so
            # the (rare: once per on/off period) lanes needing a new
            # duration run the exact scalar functions.
            flips = np.nonzero(polled & (left == 0))
            if flips[0].size:
                state = ~on[flips]
                on[flips] = state
                xs_dur = durations[flips]
                durations[flips] = xs_dur + _C
                drawn = _mix64(
                    xs_dur, np.empty_like(xs_dur), np.empty_like(xs_dur)
                )
                means = np.where(state, a.mean_on, a.mean_off).tolist()
                left[flips] = [
                    length(x / _TWO64, mean)
                    for x, mean in zip(drawn.tolist(), means)
                ]
            left[polled] -= 1
            if a.p >= 1.0:
                return need & _lanes(on)
            drawn = need & _lanes(on)
            self._mix(xs, u)
            np.add(xs, drawn.view(np.uint64) & _C, xs)
            return drawn & _lanes(u < t_p)

        return onoff

    # -- the vector poll -----------------------------------------------
    def poll(self, need: np.ndarray):
        """One ``next_packet`` per (port, world) lane where ``need``.

        ``need`` is an int64 ``[n, w]`` mask, -1 on the lanes that poll
        and 0 elsewhere (the engine's ``q_dest >> 63``).  Returns
        ``(got, dest, nbytes)``: ``got`` is the same kind of mask for
        the lanes that produced a packet, and destination and size
        (possibly read-only or broadcast views) are valid where it is
        set.
        """
        got = need if self._gate is None else self._gate(need)
        inc = np.bitwise_and(got.view(np.uint64), _C, self._inc)
        return got, self._dest(got, inc), self._size(inc)


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

    This is the bit-identity reference: same simulator assembly and
    source as :class:`~repro.engines.FabricEngine`, at the world's
    derived seed.
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
    source = fabric_source(workload.effective_traffic(), cfg)
    return sim.run(
        source, quanta=workload.quanta, warmup_quanta=_effective_warmup(workload)
    )


def run_scalar_world(
    config: SimConfig, workload: WorkloadSpec, world: int = 0
) -> RunResult:
    """One world as a full :class:`~repro.engines.RunResult` (the shape
    sweep rows carry)."""
    cfg = config.replace(seed=world_seed(config.seed, world))
    return FabricEngine(cfg).run(workload)


# ---------------------------------------------------------------------------
# The vectorized engine.
# ---------------------------------------------------------------------------
#: Measured quanta whose grant counts are binned per ``bincount``.
_GRANT_BLOCK = 64

class _VecWorlds:
    """State and step loop for ``n_worlds`` lock-step fabric runs.

    Every lane array is ``[ports, worlds]`` (port-major), so one input's
    lanes are one contiguous row of the batch rule's token-order loop.
    """

    def __init__(self, config: SimConfig, workload: WorkloadSpec, n_worlds: int):
        spec = resolve_traffic(workload.effective_traffic())
        self.config = config
        self.costs = costs = config.cost_model()
        self.n = n = config.ports
        self.w = w = n_worlds
        self.seeds = [world_seed(config.seed, i) for i in range(n_worlds)]
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
        # Queue lanes: one head-of-line fragment per (port, world).  An
        # empty lane has dest -1 (the batch rule's "no request") and 0
        # words, so refill and grant update them with arithmetic.
        self.q_dest = np.full((n, w), -1, dtype=np.int64)
        self.q_words = np.zeros((n, w), dtype=np.int64)
        self._empty = np.empty((n, w), dtype=np.int64)
        # Statistics, folded so that nothing grows with the quantum
        # count: per-lane sums, per-world sums of quantum bodies, and the
        # grant counts of the last < _GRANT_BLOCK measured quanta.
        self.quanta = 0
        self.per_port_words = np.zeros((n, w), dtype=np.int64)
        self.per_port_packets = np.zeros((n, w), dtype=np.int64)
        #: Sum over measured quanta of the next quantum's ``empty`` mask
        #: (-1 per empty lane): a lane still full after a quantum was
        #: denied in it, so ``quanta * n`` plus this sum counts denials.
        self._empties = np.zeros((n, w), dtype=np.int64)
        self._bodies = np.zeros(w, dtype=np.int64)
        self._body = np.empty((n, w), dtype=np.int64)
        self._grants = np.empty((_GRANT_BLOCK, w), dtype=np.int64)
        self._pending = 0
        self.grant_histogram = np.zeros((w, n + 1), dtype=np.int64)
        self._bin = np.arange(w, dtype=np.int64) * (n + 1)

    def _bin_grants(self) -> None:
        """Fold the pending grant counts into ``grant_histogram``."""
        k = self._pending
        if k:
            idx = (self._grants[:k] + self._bin).ravel()
            self.grant_histogram += np.bincount(
                idx, minlength=self.grant_histogram.size
            ).reshape(self.grant_histogram.shape)
            self._pending = 0

    def _step(self, measure: bool, held: bool) -> None:
        # Refill: one source poll per empty lane -- the scalar loop's
        # per-quantum _refill pass.  ``empty`` is -1 on empty lanes.
        q_dest, q_words = self.q_dest, self.q_words
        empty = np.right_shift(q_dest, 63, self._empty)
        if held:
            # The previous quantum was measured: its denied requests are
            # the lanes still full now.
            self._empties += empty
        got, dest, nbytes = self.model.poll(empty)
        q_dest += (dest + 1) & got
        q_words += (nbytes + (self.word_bytes - 1)) // self.word_bytes & got
        granted, hops = self.compiled.batch_grants(q_dest.T, self.token)
        granted, hops = granted.T, hops.T
        sent = q_words * granted
        if measure:
            self.quanta += 1
            self.per_port_words += sent
            self.per_port_packets += granted
            body = np.add(sent, hops, self._body)
            self._bodies += body.max(axis=0)
            granted.sum(axis=0, out=self._grants[self._pending])
            self._pending += 1
            if self._pending == _GRANT_BLOCK:
                self._bin_grants()
        q_words -= sent
        q_dest -= (q_dest + 1) * granted
        self.token = (self.token + 1) % self.n

    def run(self, quanta: int, warmup_quanta: int) -> None:
        for i in range(warmup_quanta + quanta):
            self._step(measure=i >= warmup_quanta, held=i > warmup_quanta)
        if quanta:
            self._empties += np.right_shift(self.q_dest, 63)
        self._bin_grants()

    def stats(self) -> List[FabricStats]:
        """Per-world :class:`FabricStats` (so gbps/mpps float semantics
        match the scalar engine exactly).

        A quantum is idle exactly when it grants nothing (the first
        requesting input in token order always wins), so the grant
        histogram's bin 0 counts idle quanta; the scalar engine bins
        busy quanta only.  Cycles are then ``busy * ctl + sum(bodies) +
        idle * idle_cycles``, and denied requests the lanes a quantum
        left full."""
        hist = self.grant_histogram.copy()
        idle = hist[:, 0].copy()
        hist[:, 0] = 0
        busy = self.quanta - idle
        cycles = busy * self.ctl + self._bodies + idle * self.idle_cycles
        blocked = self.quanta * self.n + self._empties.sum(axis=0)
        words = self.per_port_words.sum(axis=0)
        packets = self.per_port_packets.sum(axis=0)
        ppw = self.per_port_words.T.tolist()
        ppp = self.per_port_packets.T.tolist()
        hist = hist.tolist()
        out = []
        for w in range(self.w):
            st = FabricStats(num_ports=self.n, costs=self.costs)
            st.quanta = self.quanta
            st.idle_quanta = int(idle[w])
            st.cycles = int(cycles[w])
            st.delivered_words = int(words[w])
            st.delivered_packets = int(packets[w])
            st.blocked_events = int(blocked[w])
            st.per_port_words = ppw[w]
            st.per_port_packets = ppp[w]
            st.grant_histogram = hist[w]
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
