"""The module-level recorder every instrumented site checks.

``RECORDER`` is ``None`` unless telemetry has been enabled, and every
hot-path site guards with a single truthiness check on a locally captured
reference::

    tel = self._tel            # captured once at construction
    ...
    if tel is not None:
        tel.events.emit(now, EV_PKT_HOP, subject)

so the disabled-mode cost is one ``is not None`` per site — results are
bit-identical because instrumentation never creates, reorders, or times
simulation events.

Enable telemetry *before* constructing engines/Simulators: they capture
the recorder reference at ``__init__`` time.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Optional

from .events import EventLog
from .journey import JourneyTracker
from .profile import KernelProfile
from .registry import MetricsRegistry


class Telemetry:
    """Aggregate of the four telemetry components for one run.

    A ``Telemetry`` is also the unit of the *distributed* plane: each
    worker process records into its own local instance, ships
    :meth:`to_state` over the existing pipes, and the coordinator folds
    every state with :meth:`merge_state` -- associative and commutative
    in worker order -- into a view indistinguishable from a
    single-process run (plus per-worker provenance in ``workers``).
    """

    def __init__(self, capacity: int = 65536, snapshot_interval: int = 0,
                 detail_limit: int = 64):
        self.events = EventLog(capacity=capacity)
        self.registry = MetricsRegistry(snapshot_interval=snapshot_interval)
        self.journeys = JourneyTracker(detail_limit=detail_limit)
        self.kernel = KernelProfile()
        #: Provenance of merged worker states: worker id -> meta dict.
        self.workers: Dict[int, Dict[str, Any]] = {}

    # -- distributed merge ----------------------------------------------
    def config(self) -> Dict[str, int]:
        """The constructor arguments, for cloning into workers."""
        return {
            "capacity": self.events.capacity,
            "snapshot_interval": self.registry.snapshot_interval,
            "detail_limit": self.journeys.detail_limit,
        }

    def to_state(self, worker: Optional[int] = None,
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Picklable recorder state; ``worker`` stamps provenance into
        events (origin), gauges (``w{n}.`` prefix), and snapshots."""
        return {
            "version": 1,
            "worker": worker,
            "meta": dict(meta or {}),
            "events": self.events.to_state(
                origin=0 if worker is None else worker + 1
            ),
            "registry": self.registry.to_state(worker=worker),
            "journeys": self.journeys.to_state(worker=worker),
            "kernel": self.kernel.to_state(),
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold one worker's shipped state into this recorder."""
        self.events.merge_state(state["events"])
        self.registry.merge_state(state["registry"])
        self.journeys.merge_state(state["journeys"])
        self.kernel.merge_state(state["kernel"])
        worker = state.get("worker")
        if worker is not None:
            self.workers[worker] = dict(state.get("meta") or {})

    # Convenience pass-throughs used by low-frequency sites.
    def count(self, name: str, delta: int = 1) -> None:
        self.registry.count(name, delta)

    def emit(self, cycle: int, kind: int, subject: str = "",
             data: Any = None) -> None:
        self.events.emit(cycle, kind, subject, data)

    def summary(self) -> Dict[str, Any]:
        """JSON-safe rollup attached to sweep/chaos artifacts."""
        out = self._base_summary()
        ff = self.registry.read_gauge("fabric.fast_forward.quanta")
        if ff is not None:
            # Fast-forward was requested (telemetry forces the step
            # loop, so ff_quanta is 0 here by design).
            out["fabric_fast_path"] = {"ff_quanta": ff}
        windows = self.registry.read_gauge("space.windows")
        if windows is not None:
            # The space-partitioned engine's per-run counters; distributed
            # runs fold worker recorders in and attach the same shape
            # through RunResult.extra["space_shard"] as well.
            out["space_shard"] = {
                "windows": windows,
                "pipe_stall_s": self.registry.read_gauge("space.pipe_stall_s")
                or 0.0,
                "boundary_flits": self.registry.read_gauge(
                    "space.boundary_flits"
                )
                or 0,
                "partitions": self.registry.read_gauge("space.partitions")
                or 1,
                "serial_fallback": bool(
                    self.registry.read_gauge("space.serial_fallback")
                ),
                "bytes_moved": self.registry.read_gauge("space.bytes_moved")
                or 0,
            }
        return out

    def _base_summary(self) -> Dict[str, Any]:
        journeys: Dict[str, Any] = {
            "completed": self.journeys.completed,
            "dropped": self.journeys.dropped,
            "in_flight": self.journeys.in_flight,
            "stage_histograms": {
                s: h.to_dict()
                for s, h in self.journeys.stage_hist.items()
            },
        }
        if self.journeys.dim_hist:
            dims: Dict[str, Dict[str, Any]] = {}
            for (dim, label), h in sorted(self.journeys.dim_hist.items()):
                dims.setdefault(dim, {})[label] = h.to_dict()
            journeys["dimensions"] = dims
        out: Dict[str, Any] = {
            "events": {
                "emitted": self.events.emitted,
                "retained": len(self.events),
                "by_kind": self.events.counts_by_name(),
            },
            "metrics": self.registry.to_dict(),
            "journeys": journeys,
            "kernel": self.kernel.to_dict(),
        }
        if self.workers:
            out["workers"] = {
                str(w): meta for w, meta in sorted(self.workers.items())
            }
        return out


#: The one global recorder; ``None`` means telemetry is off.
RECORDER: Optional[Telemetry] = None


def enable(capacity: int = 65536, snapshot_interval: int = 0,
           detail_limit: int = 64) -> Telemetry:
    """Install (and return) a fresh recorder."""
    global RECORDER
    RECORDER = Telemetry(capacity=capacity,
                         snapshot_interval=snapshot_interval,
                         detail_limit=detail_limit)
    return RECORDER


def disable() -> None:
    global RECORDER
    RECORDER = None


def get() -> Optional[Telemetry]:
    return RECORDER


@contextmanager
def capture(capacity: int = 65536, snapshot_interval: int = 0,
            detail_limit: int = 64):
    """Context manager: enable for the block, restore prior state after."""
    global RECORDER
    prev = RECORDER
    tel = enable(capacity=capacity, snapshot_interval=snapshot_interval,
                 detail_limit=detail_limit)
    try:
        yield tel
    finally:
        RECORDER = prev
