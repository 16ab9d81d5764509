"""The replayable TrafficModel protocol and its synthetic implementation.

A *traffic model* is the one shape every engine consumes:

``next_packet(port) -> Optional[(dest, size_bytes)]``
    None means "no arrival at this poll" (engines idle the port).
``deterministic: bool``
    True only when the destination stream is a pure function of the
    port (licenses the fabric's steady-state fast-forward).

:class:`SpecModel` realizes a synthetic
:class:`~repro.traffic.spec.TrafficSpec` with counter-based draws
(:mod:`repro.traffic.rng`): the only mutable state is a few integers
per port, so each port's packet stream is independent of the order in
which other ports are polled -- what lets a space partition poll only
its own ports and still reproduce the serial run.  Trace replay is
:class:`repro.traffic.replay.TraceReplay`, which implements the same
protocol.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

from repro import seeds
from repro.traffic.rng import (
    draw_float,
    draw_int,
    draw_u64,
    geometric_length,
    pareto_length,
)
from repro.traffic.spec import ArrivalSpec, PatternSpec, SizeSpec, TrafficSpec

#: Per-port draw streams (stream id = port * _STRIDE + offset).
_S_PATTERN = 0
_S_SIZE = 1
_S_ARRIVAL = 2
_S_DURATION = 3
_S_BURST = 4
_STRIDE = 8


@runtime_checkable
class TrafficModel(Protocol):
    """The unified per-port packet source every engine adapts."""

    deterministic: bool

    def next_packet(self, port: int) -> Optional[Tuple[int, int]]:
        """(destination port, size bytes) or None for no arrival."""
        ...


class SpecModel:
    """Counter-based realization of a synthetic :class:`TrafficSpec`.

    ``gate_arrivals=False`` strips the arrival process (every poll
    offers): the router engine's line-card path paces arrivals in
    simulated time itself and only needs the pattern/size draws.
    """

    def __init__(
        self,
        spec: TrafficSpec,
        n: int,
        seed: int = 0,
        gate_arrivals: bool = True,
    ):
        if spec.kind != "synthetic":
            raise ValueError("SpecModel realizes synthetic specs only")
        if n < 2:
            raise ValueError("need at least two ports")
        pat = spec.pattern
        if pat.kind in ("hotspot",) and pat.hot_port >= n:
            raise ValueError(
                f"hot_port {pat.hot_port} out of range for {n} ports"
            )
        self.spec = spec
        self.n = n
        self.seed = seeds.spec_seed(seed)
        self.gate = gate_arrivals and spec.arrivals.kind != "saturated"
        # The destination stream is a pure function of the port only for
        # a drift-free permutation with fixed sizes and no gating.
        self.deterministic = (
            pat.kind == "permutation"
            and spec.sizes.kind == "fixed"
            and not self.gate
        )
        # Per-port counters -- the entire mutable state.
        self._pat = [0] * n  #: pattern draws consumed
        self._size = [0] * n  #: size draws consumed
        self._arr = [0] * n  #: arrival draws consumed
        self._dur = [0] * n  #: on/off duration draws consumed
        self._offered = [0] * n  #: packets offered (drives hotspot drift)
        self._cur: list = [None] * n  #: bursty: current train destination
        self._on = [False] * n  #: onoff: current state (starts off->draw)
        self._left = [0] * n  #: onoff: polls left in the current state

    # -- draws ----------------------------------------------------------
    def _f(self, port: int, sub: int, counter_list) -> float:
        k = counter_list[port]
        counter_list[port] = k + 1
        return draw_float(self.seed, port * _STRIDE + sub, k)

    def _i(self, port: int, sub: int, counter_list, n: int) -> int:
        k = counter_list[port]
        counter_list[port] = k + 1
        return draw_int(self.seed, port * _STRIDE + sub, k, n)

    # -- arrival process ------------------------------------------------
    def _offers(self, port: int) -> bool:
        """Whether a gated arrival process offers a packet at this poll."""
        a = self.spec.arrivals
        if a.kind == "bernoulli":
            return self._f(port, _S_ARRIVAL, self._arr) < a.p
        # onoff: advance the two-state machine by one poll.
        while self._left[port] == 0:
            self._on[port] = not self._on[port]
            mean = a.mean_on if self._on[port] else a.mean_off
            u = self._f(port, _S_DURATION, self._dur)
            self._left[port] = (
                pareto_length(u, mean, a.alpha)
                if a.heavy
                else geometric_length(u, mean)
            )
        self._left[port] -= 1
        if not self._on[port]:
            return False
        if a.p >= 1.0:
            return True
        return self._f(port, _S_ARRIVAL, self._arr) < a.p

    # -- destination pattern --------------------------------------------
    def _uniform_dest(self, port: int, sub: int, counters, exclude_self: bool) -> int:
        # The admission hot path: one counter bump and one draw_u64 (the
        # same value _i's draw_int would give; n >= 2 keeps n - 1 >= 1).
        k = counters[port]
        counters[port] = k + 1
        u = draw_u64(self.seed, port * _STRIDE + sub, k)
        if not exclude_self:
            return u % self.n
        d = u % (self.n - 1)
        return d if d < port else d + 1

    def _next_dest(self, port: int) -> int:
        p = self.spec.pattern
        if p.kind == "permutation":
            return (port + p.shift) % self.n
        if p.kind == "uniform":
            return self._uniform_dest(port, _S_PATTERN, self._pat, p.exclude_self)
        if p.kind == "hotspot":
            hot = p.hot_port
            if p.drift_packets:
                hot = (hot + self._offered[port] // p.drift_packets) % self.n
            if self._f(port, _S_PATTERN, self._pat) < p.p_hot:
                return hot
            return self._i(port, _S_PATTERN, self._pat, self.n)
        # bursty: geometric trains sharing one destination.
        cur = self._cur[port]
        if cur is None or self._f(port, _S_BURST, self._pat) < 1.0 / p.mean_burst:
            cur = self._uniform_dest(port, _S_PATTERN, self._pat, p.exclude_self)
            self._cur[port] = cur
        return cur

    # -- packet sizes ---------------------------------------------------
    def _next_size(self, port: int) -> int:
        s = self.spec.sizes
        if s.kind == "fixed":
            return s.bytes
        if s.kind == "imix":
            u = self._f(port, _S_SIZE, self._size) * sum(s.IMIX_WEIGHTS)
            acc = 0.0
            for size, w in zip(s.IMIX_SIZES, s.IMIX_WEIGHTS):
                acc += w
                if u < acc:
                    return size
            return s.IMIX_SIZES[-1]
        if s.kind == "uniform":
            span = s.hi // 4 - s.lo // 4 + 1
            return (s.lo // 4 + self._i(port, _S_SIZE, self._size, span)) * 4
        return (
            s.small
            if self._f(port, _S_SIZE, self._size) < s.p_small
            else s.large
        )

    # -- the TrafficModel protocol --------------------------------------
    def next_packet(self, port: int) -> Optional[Tuple[int, int]]:
        if self.gate and not self._offers(port):
            return None
        dest = self._next_dest(port)
        size = self._next_size(port)
        self._offered[port] += 1
        return dest, size

    # -- convenience ----------------------------------------------------
    @property
    def load(self) -> float:
        return 1.0 if not self.gate else self.spec.arrivals.load

    @property
    def num_ports(self) -> int:
        """Duck-type compatibility with :class:`repro.traffic.workload.Workload`."""
        return self.n
