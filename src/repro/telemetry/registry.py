"""Metrics registry: counters, gauges, and log-bucketed histograms in a
flat dotted namespace, with periodic snapshotting on a cycle interval.

The registry replaces ad-hoc tallies as the *queryable* surface: the
existing stat dataclasses (``RouterStats``, ``ResilienceMetrics``) keep
their public APIs, but register callable gauge views here so every number
is reachable by one flat name (``fabric.tokens_passed``,
``ingress.0.queue_depth``, ``kernel.events_dispatched``).

Every component here is *mergeable*: :meth:`LogHistogram.to_state` /
:meth:`LogHistogram.merge_state` and the registry-level pair fold
worker-local recorders into one coordinator view (counters and
histograms sum, gauges are shipped by value under a ``w{worker}.``
prefix, snapshots interleave by cycle).  The merge is associative and
commutative in worker order, mirroring ``FabricStats.add_counters``.
Gauges registered *volatile* (wall-clock or otherwise nondeterministic)
are excluded from snapshots, ``to_dict`` and shipped state so exports
stay bit-deterministic; they remain readable via :meth:`read_gauge`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

#: Number of log buckets; covers values up to 2**47 cycles.
HIST_BUCKETS = 48


class LogHistogram:
    """HDR-style fixed-size log-bucketed histogram of non-negative ints.

    Bucket ``i`` holds values whose bit length is ``i`` (bucket 0 holds
    value 0), i.e. bucket boundaries are powers of two.  Fixed-size
    arrays, never per-sample lists, so recording is O(1) and memory is
    constant regardless of sample count.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets: List[int] = [0] * HIST_BUCKETS
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int) -> None:
        if value < 0:
            value = 0
        self.buckets[value.bit_length()] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Linear interpolation within the bucket containing the p-th
        percentile, clamped into ``[min, max]`` (the previous
        bucket-upper-bound answer overstated tails by up to 2x)."""
        if not self.count:
            return 0
        target = p / 100.0 * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            if seen + n >= target:
                lo = 0 if i == 0 else 1 << (i - 1)
                hi = 0 if i == 0 else (1 << i) - 1
                frac = max(0.0, min(1.0, (target - seen) / n))
                value = lo + int((hi - lo) * frac)
                if self.min is not None and value < self.min:
                    value = self.min
                if self.max is not None and value > self.max:
                    value = self.max
                return value
            seen += n
        return self.max or 0

    def nonzero_buckets(self) -> List[Dict[str, int]]:
        out = []
        for i, n in enumerate(self.buckets):
            if n:
                lo = 0 if i == 0 else 1 << (i - 1)
                hi = 0 if i == 0 else (1 << i) - 1
                out.append({"lo": lo, "hi": hi, "count": n})
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "buckets": self.nonzero_buckets(),
        }

    # -- distributed merge ----------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """Picklable value capturing every accumulated sample."""
        return {
            "buckets": [[i, n] for i, n in enumerate(self.buckets) if n],
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's state in (associative, commutative)."""
        for i, n in state["buckets"]:
            self.buckets[i] += n
        self.count += state["count"]
        self.total += state["total"]
        smin, smax = state["min"], state["max"]
        if smin is not None and (self.min is None or smin < self.min):
            self.min = smin
        if smax is not None and (self.max is None or smax > self.max):
            self.max = smax


class MetricsRegistry:
    """Flat-namespace counters/gauges/histograms + periodic snapshots."""

    def __init__(self, snapshot_interval: int = 0):
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Callable[[], Any]] = {}
        self._hists: Dict[str, LogHistogram] = {}
        #: Gauge names whose values are nondeterministic (wall-clock);
        #: excluded from snapshots, ``to_dict`` and shipped state.
        self._volatile: set = set()
        #: Cycle interval between snapshots; 0 disables periodic capture.
        self.snapshot_interval = snapshot_interval
        self.snapshots: List[Dict[str, Any]] = []
        self._next_snapshot = snapshot_interval if snapshot_interval else None

    # -- counters -------------------------------------------------------
    def count(self, name: str, delta: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + delta

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    # -- gauges ---------------------------------------------------------
    def gauge(self, name: str, fn: Callable[[], Any],
              volatile: bool = False) -> None:
        """Register a callable view; evaluated lazily at snapshot time."""
        self._gauges[name] = fn
        if volatile:
            self._volatile.add(name)
        else:
            self._volatile.discard(name)

    def set_gauge(self, name: str, value: Any, volatile: bool = False) -> None:
        self._gauges[name] = lambda v=value: v
        if volatile:
            self._volatile.add(name)
        else:
            self._volatile.discard(name)

    def read_gauge(self, name: str) -> Any:
        fn = self._gauges.get(name)
        return fn() if fn is not None else None

    # -- histograms -----------------------------------------------------
    def histogram(self, name: str) -> LogHistogram:
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = LogHistogram()
        return h

    # -- snapshots ------------------------------------------------------
    def maybe_snapshot(self, cycle: int) -> None:
        """Capture a snapshot if ``cycle`` crossed the next boundary."""
        nxt = self._next_snapshot
        if nxt is None or cycle < nxt:
            return
        self.snapshot(cycle)
        interval = self.snapshot_interval
        # Catch up past boundaries without emitting duplicates.
        boundary = nxt + interval
        while boundary <= cycle:
            boundary += interval
        self._next_snapshot = boundary

    def snapshot(self, cycle: int) -> Dict[str, Any]:
        snap: Dict[str, Any] = {"cycle": cycle}
        snap["values"] = self._values()
        self.snapshots.append(snap)
        return snap

    def _values(self) -> Dict[str, Any]:
        """Counters plus non-volatile gauge readings."""
        values: Dict[str, Any] = dict(self._counters)
        for name, fn in self._gauges.items():
            if name in self._volatile:
                continue
            try:
                values[name] = fn()
            except Exception:
                values[name] = None
        return values

    # -- export ---------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._hists)
        )

    def to_dict(self) -> Dict[str, Any]:
        values = self._values()
        return {
            "values": {k: values[k] for k in sorted(values)},
            "histograms": {
                k: self._hists[k].to_dict() for k in sorted(self._hists)
            },
            "snapshots": self.snapshots,
        }

    # -- distributed merge ----------------------------------------------
    def to_state(self, worker: Optional[int] = None) -> Dict[str, Any]:
        """Picklable registry state for shipping to a coordinator.

        ``worker`` stamps provenance: gauges are renamed under a
        ``w{worker}.`` prefix (worker gauges are per-process views, not
        summable quantities) and snapshots gain a ``worker`` key so the
        trace exporter can lay them out as per-worker tracks.  Counters
        and histograms ship unprefixed -- they sum across workers.
        """
        prefix = "" if worker is None else f"w{worker}."
        gauges: Dict[str, Any] = {}
        for name, fn in self._gauges.items():
            if name in self._volatile:
                continue
            try:
                gauges[prefix + name] = fn()
            except Exception:
                gauges[prefix + name] = None
        snaps = [dict(s) for s in self.snapshots]
        if worker is not None:
            for s in snaps:
                s.setdefault("worker", worker)
        return {
            "counters": dict(self._counters),
            "gauges": gauges,
            "hists": {k: h.to_state() for k, h in self._hists.items()},
            "snapshots": snaps,
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold a shipped state in: counters/histograms sum, gauges are
        installed by value, snapshots interleave by ``(cycle, worker)``.
        Associative and commutative over states with distinct workers."""
        for name, delta in state["counters"].items():
            self.count(name, delta)
        for name, value in state["gauges"].items():
            self.set_gauge(name, value)
        for name, hs in state["hists"].items():
            self.histogram(name).merge_state(hs)
        if state["snapshots"]:
            self.snapshots.extend(dict(s) for s in state["snapshots"])
            self.snapshots.sort(
                key=lambda s: (s["cycle"], s.get("worker", -1))
            )
