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

from bisect import bisect_right
from typing import Callable, List, Optional, Protocol, Tuple, runtime_checkable

from repro import seeds
from repro.traffic.rng import (
    _A,
    _B,
    _C,
    _M64,
    geometric_length,
    mix64,
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

#: Uniform destinations a port draws ahead per refill
#: (:func:`_uniform_blocks`).
_BLOCK = 64
#: A block's lanes: a 1 in each, ``k * _C`` (mod 2**64) in lane ``k``,
#: and each lane's low 64 bits.
_LANES = sum(1 << 128 * k for k in range(_BLOCK))
_LANE_STEPS = sum((k * _C & _M64) << 128 * k for k in range(_BLOCK))
_LANE_LOW = _M64 * _LANES

#: ``draw_float``'s divisor.
_TWO64 = float(1 << 64)


@runtime_checkable
class TrafficModel(Protocol):
    """The unified per-port packet source every engine adapts."""

    deterministic: bool

    def next_packet(self, port: int) -> Optional[Tuple[int, int]]:
        """(destination port, size bytes) or None for no arrival."""
        ...


def _streams(seed: int, n: int, sub: int) -> List[int]:
    """Per port, the value draw 0 of stream ``port * _STRIDE + sub``
    feeds the finalizer: ``draw_u64(seed, stream, k)`` is ``mix64(base
    + k * _C)``.  The draw closures below keep each port's *next* value
    and step it by ``_C`` (mod 2**64) with every draw they consume, a
    uniform block by ``_BLOCK * _C``."""
    return [(seed * _A + (port * _STRIDE + sub) * _B + 1) & _M64
            for port in range(n)]


# ---------------------------------------------------------------------------
# Destination patterns: ``dest(port) -> int``, one closure per kind.
# ---------------------------------------------------------------------------
def _dest_fn(pat: PatternSpec, n: int, seed: int) -> Callable[[int], int]:
    if pat.kind == "permutation":
        return [(port + pat.shift) % n for port in range(n)].__getitem__
    xs = _streams(seed, n, _S_PATTERN)
    if pat.kind == "uniform":
        blocks, refill = _uniform_blocks(xs, n, pat.exclude_self)

        def uniform(port: int) -> int:
            return (blocks[port] or refill(port)).pop()

        return uniform
    if pat.kind == "hotspot":
        return _hotspot_fn(xs, n, pat)
    return _bursty_fn(xs, _streams(seed, n, _S_BURST), n, pat)


def _fixed_fn(pat: PatternSpec, n: int, seed: int,
              value: int) -> Callable[[int], Tuple[int, int]]:
    """``port -> (dest, value)``: the draw of a fixed-size spec.  A
    uniform port pops its destination in the same frame."""
    if pat.kind == "uniform":
        blocks, refill = _uniform_blocks(
            _streams(seed, n, _S_PATTERN), n, pat.exclude_self
        )

        def uniform(port: int) -> Tuple[int, int]:
            return (blocks[port] or refill(port)).pop(), value

        return uniform
    dest = _dest_fn(pat, n, seed)

    def draw(port: int) -> Tuple[int, int]:
        return dest(port), value

    return draw


def _uniform_blocks(xs: List[int], n: int, exclude_self: bool):
    """``(blocks, refill)``: per port, its next uniform destinations, last
    to be used first, and ``refill(port)``, which stores and returns the
    next :data:`_BLOCK` of them.  Destination ``k`` of a block is
    ``draw_int(seed, stream, k0 + k, n - 1)`` (mapped around the port
    itself when ``exclude_self``) for the block's first counter ``k0``.
    The finalizer runs once a block, on one Python int holding every
    draw's 64-bit value in its own 128-bit lane: a product of two 64-bit
    values fits its lane, and masking each lane's low 64 bits is the
    scalar path's ``& _M64``, so a block is exactly the next per-call
    draws."""
    m = n - 1 if exclude_self else n
    span = _BLOCK * _C & _M64
    blocks: List[List[int]] = [[] for _ in range(n)]

    def refill(port: int) -> List[int]:
        x = xs[port]
        xs[port] = (x + span) & _M64
        v = (x * _LANES + _LANE_STEPS) & _LANE_LOW
        v ^= (v >> 30) & _LANE_LOW
        v = v * _B & _LANE_LOW
        v ^= (v >> 27) & _LANE_LOW
        v = v * _C & _LANE_LOW
        v ^= (v >> 31) & _LANE_LOW
        # Each lane's low word, last lane first.
        words = memoryview(v.to_bytes(_BLOCK * 16, "little")).cast("Q")[-2::-2]
        if exclude_self:
            block = [d + 1 if (d := w % m) >= port else d for w in words]
        else:
            block = [w % m for w in words]
        blocks[port] = block
        return block

    return blocks, refill


def _hotspot_fn(xs: List[int], n: int, pat: PatternSpec):
    """One draw when the packet goes hot, two when it spills (the
    second picks a uniform port); with ``drift_packets`` the hot port
    advances by one every that many packets the port offers."""
    hot_port, p_hot, drift = pat.hot_port, pat.p_hot, pat.drift_packets
    offered = [0] * n

    def hotspot(port: int) -> int:
        hot = hot_port
        if drift:
            o = offered[port]
            offered[port] = o + 1
            hot = (hot + o // drift) % n
        x = xs[port]
        x2 = (x + _C) & _M64
        if mix64(x) / _TWO64 < p_hot:
            xs[port] = x2
            return hot
        xs[port] = (x2 + _C) & _M64
        return mix64(x2) % n

    return hotspot


def _bursty_fn(xs: List[int], bursts: List[int], n: int, pat: PatternSpec):
    """Geometric trains sharing one destination.  The burst and pattern
    streams share one counter: while a train runs, each packet draws a
    burst value and skips a uniform one, and a burst value below ``1 /
    mean_burst`` starts a new train with the next uniform draw (a
    port's first packet starts one without the burst draw)."""
    blocks, refill = _uniform_blocks(xs, n, pat.exclude_self)
    new_train = 1.0 / pat.mean_burst
    current: List[Optional[int]] = [None] * n

    def bursty(port: int) -> int:
        cur = current[port]
        if cur is not None:
            x = bursts[port]
            bursts[port] = (x + _C) & _M64
            (blocks[port] or refill(port)).pop()
            if mix64(x) / _TWO64 >= new_train:
                return cur
        bursts[port] = (bursts[port] + _C) & _M64
        cur = current[port] = (blocks[port] or refill(port)).pop()
        return cur

    return bursty


# ---------------------------------------------------------------------------
# Packet sizes: an ``int`` for fixed sizes, else ``size(port) -> int``.
# ---------------------------------------------------------------------------
def _size_fn(s: SizeSpec, n: int, seed: int):
    if s.kind == "fixed":
        return s.bytes
    xs = _streams(seed, n, _S_SIZE)
    if s.kind == "imix":
        # The first cumulative weight above u picks the size; u can
        # round up to the total, which the repeated last size covers.
        total = sum(s.IMIX_WEIGHTS)
        bounds = []
        acc = 0.0
        for w in s.IMIX_WEIGHTS:
            acc += w
            bounds.append(acc)
        picks = s.IMIX_SIZES + s.IMIX_SIZES[-1:]

        def imix(port: int) -> int:
            x = xs[port]
            xs[port] = (x + _C) & _M64
            x = ((x ^ (x >> 30)) * _B) & _M64
            x = ((x ^ (x >> 27)) * _C) & _M64
            return picks[bisect_right(bounds, (x ^ (x >> 31)) / _TWO64 * total)]

        return imix
    if s.kind == "uniform":
        lo, span = s.lo // 4, s.hi // 4 - s.lo // 4 + 1

        def uniform(port: int) -> int:
            x = xs[port]
            xs[port] = (x + _C) & _M64
            return (lo + mix64(x) % span) * 4

        return uniform
    small, large, p_small = s.small, s.large, s.p_small

    def bimodal(port: int) -> int:
        x = xs[port]
        xs[port] = (x + _C) & _M64
        return small if mix64(x) / _TWO64 < p_small else large

    return bimodal


# ---------------------------------------------------------------------------
# Arrival gates: ``offers(port) -> bool``.
# ---------------------------------------------------------------------------
def _gate_fn(a: ArrivalSpec, n: int, seed: int) -> Callable[[int], bool]:
    xs = _streams(seed, n, _S_ARRIVAL)
    p = a.p
    if a.kind == "bernoulli":
        def bernoulli(port: int) -> bool:
            x = xs[port]
            xs[port] = (x + _C) & _M64
            return mix64(x) / _TWO64 < p

        return bernoulli
    # onoff: a two-state machine per port, starting off, so the first
    # poll flips it on and draws the on period's length.
    durations = _streams(seed, n, _S_DURATION)
    on = [False] * n
    left = [0] * n
    mean_on, mean_off, alpha, heavy = a.mean_on, a.mean_off, a.alpha, a.heavy

    def onoff(port: int) -> bool:
        while left[port] == 0:
            state = on[port] = not on[port]
            mean = mean_on if state else mean_off
            x = durations[port]
            durations[port] = (x + _C) & _M64
            u = mix64(x) / _TWO64
            left[port] = (
                pareto_length(u, mean, alpha) if heavy
                else geometric_length(u, mean)
            )
        left[port] -= 1
        if not on[port]:
            return False
        if p >= 1.0:
            return True
        x = xs[port]
        xs[port] = (x + _C) & _M64
        return mix64(x) / _TWO64 < p

    return onoff


class SpecModel:
    """Counter-based realization of a synthetic :class:`TrafficSpec`.

    ``gate_arrivals=False`` strips the arrival process (every poll
    offers): the router engine's line-card path paces arrivals in
    simulated time itself and only needs the pattern/size draws.

    The pattern, size and arrival kinds are resolved once, here:
    ``next_packet`` is a closure over one draw function per kind, each
    holding its ports' stream values, and it draws exactly what
    :func:`~repro.traffic.rng.draw_u64` / ``draw_float`` / ``draw_int``
    give on the same streams and counters (``tests/test_traffic.py``
    holds it to them).
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
        size = _size_fn(spec.sizes, n, self.seed)
        if isinstance(size, int):
            draw = _fixed_fn(pat, n, self.seed, size)
        else:
            dest = _dest_fn(pat, n, self.seed)

            def draw(port: int) -> Tuple[int, int]:
                return dest(port), size(port)
        if self.gate:
            offers = _gate_fn(spec.arrivals, n, self.seed)

            def next_packet(port: int) -> Optional[Tuple[int, int]]:
                return draw(port) if offers(port) else None
        else:
            next_packet = draw
        #: ``(destination port, size bytes)`` or None for no arrival.
        self.next_packet = next_packet

    def _fixed(self, value: int) -> Callable[[int], Tuple[int, int]]:
        """``port -> (dest, value)`` over fresh pattern streams: the
        destinations an ungated fixed-size model's ``next_packet``
        draws, each paired with ``value`` in the same frame (the fabric
        reads the size in words)."""
        return _fixed_fn(self.spec.pattern, self.n, self.seed, value)

    # -- convenience ----------------------------------------------------
    @property
    def load(self) -> float:
        return 1.0 if not self.gate else self.spec.arrivals.load
