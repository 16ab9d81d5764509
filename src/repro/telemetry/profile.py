"""Kernel self-profiling: where does the *simulator* spend its work?

Collected by gated instrumentation inside ``sim/kernel.py``: per-command
dispatch counts (the burst vs word-at-a-time mix), how many events each
drained cycle held, and the most cycles pending at once.  Wall-clock
events/sec is computed by the caller (``traced.run_traced``) and
reported to the terminal only — it never enters exported JSON, which
must be deterministic.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Kernel command kinds, indexed by the ``_kind`` tag dispatch uses.
CMD_NAMES = ("Timeout", "Put", "Get", "PutBurst", "GetBurst", "RouteBurst")

WORD_KINDS = ("Put", "Get")
BURST_KINDS = ("PutBurst", "GetBurst", "RouteBurst")


class KernelProfile:
    """Counters filled in by the kernel when telemetry is enabled."""

    __slots__ = ("cmd_counts", "bucket_drains", "bucket_events",
                 "bucket_peak", "slot_peak")

    def __init__(self):
        self.cmd_counts: List[int] = [0] * len(CMD_NAMES)
        #: Cycles drained (one event list, or "bucket", each) / total
        #: events they held.
        self.bucket_drains = 0
        self.bucket_events = 0
        #: Most events drained in one cycle, and the most pending cycles
        #: (distinct future event times) observed at once.
        self.bucket_peak = 0
        self.slot_peak = 0

    @property
    def mean_bucket_occupancy(self) -> float:
        return self.bucket_events / self.bucket_drains if self.bucket_drains else 0.0

    def burst_mix(self) -> Dict[str, int]:
        by_name = dict(zip(CMD_NAMES, self.cmd_counts))
        return {
            "word_ops": sum(by_name[k] for k in WORD_KINDS),
            "burst_ops": sum(by_name[k] for k in BURST_KINDS),
            "timeouts": by_name["Timeout"],
        }

    # -- distributed merge ----------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """Picklable profile state for shipping to a coordinator."""
        return {
            "cmd_counts": list(self.cmd_counts),
            "bucket_drains": self.bucket_drains,
            "bucket_events": self.bucket_events,
            "bucket_peak": self.bucket_peak,
            "slot_peak": self.slot_peak,
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another profile in: counts sum, peaks take the max
        (associative, commutative)."""
        for i, n in enumerate(state["cmd_counts"]):
            self.cmd_counts[i] += n
        self.bucket_drains += state["bucket_drains"]
        self.bucket_events += state["bucket_events"]
        if state["bucket_peak"] > self.bucket_peak:
            self.bucket_peak = state["bucket_peak"]
        if state["slot_peak"] > self.slot_peak:
            self.slot_peak = state["slot_peak"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "commands": {
                name: n
                for name, n in zip(CMD_NAMES, self.cmd_counts)
                if n
            },
            "burst_mix": self.burst_mix(),
            "calendar": {
                "bucket_drains": self.bucket_drains,
                "bucket_events": self.bucket_events,
                "mean_bucket_occupancy": self.mean_bucket_occupancy,
                "bucket_peak": self.bucket_peak,
                "slot_peak": self.slot_peak,
            },
        }
