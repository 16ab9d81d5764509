"""Resilience measurement: MTTR, goodput under faults, drop taxonomy.

Every engine that runs a :class:`~repro.faults.plan.FaultPlan` records
into one :class:`ResilienceMetrics`: which faults were injected (and
which missed, e.g. a corruption aimed at an empty channel), when each
recovery completed, and why packets died.  The headline numbers:

* **MTTR** -- mean cycles from fault injection to restored service
  (token regenerated, link back up, degraded routing converged);
* **goodput ratio** -- delivered/offered, the FlexCross-style "how much
  of the traffic survived" measure;
* **drop taxonomy** -- drops by cause (``corrupt``, ``dead_port``,
  ``line``, ...), so a chaos run's losses are attributable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class RecoveryRecord:
    """One fault's detection/recovery timeline, in cycles."""

    kind: str
    target: str
    injected_at: int
    recovered_at: Optional[int] = None

    @property
    def recovery_cycles(self) -> Optional[int]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.injected_at

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "target": self.target,
            "injected_at": self.injected_at,
            "recovered_at": self.recovered_at,
            "recovery_cycles": self.recovery_cycles,
        }


@dataclass
class ResilienceMetrics:
    """Aggregated fault/recovery/drop accounting for one run."""

    recoveries: List[RecoveryRecord] = field(default_factory=list)
    drops: Dict[str, int] = field(default_factory=dict)
    faults_injected: int = 0
    faults_missed: int = 0  #: events that found nothing to corrupt/affect
    offered_words: int = 0
    delivered_words: int = 0

    # -- recording ------------------------------------------------------
    def record_fault(
        self, cycle: int, kind: str, target: str, applied: bool = True
    ) -> RecoveryRecord:
        """Note an injection; returns the open recovery record."""
        if applied:
            self.faults_injected += 1
        else:
            self.faults_missed += 1
        rec = RecoveryRecord(kind=kind, target=target, injected_at=cycle)
        self.recoveries.append(rec)
        return rec

    def close_open(self, kind: str, target: str, cycle: int) -> None:
        """Close the oldest still-open recovery matching kind/target."""
        for rec in self.recoveries:
            if rec.recovered_at is None and rec.kind == kind and rec.target == target:
                rec.recovered_at = cycle
                return

    def record_drop(self, cause: str, count: int = 1) -> None:
        self.drops[cause] = self.drops.get(cause, 0) + count

    # -- headline numbers ----------------------------------------------
    @property
    def mttr_cycles(self) -> Optional[float]:
        """Mean time to recovery over completed recoveries, or None."""
        done = [r.recovery_cycles for r in self.recoveries if r.recovery_cycles is not None]
        if not done:
            return None
        return sum(done) / len(done)

    @property
    def max_recovery_cycles(self) -> Optional[int]:
        done = [r.recovery_cycles for r in self.recoveries if r.recovery_cycles is not None]
        return max(done) if done else None

    @property
    def unrecovered(self) -> int:
        """Faults never detected/recovered by the end of a run.  Every
        kind has a closing event (even ``port_down`` closes when routing
        reconverges), so a nonzero value flags a recovery bug."""
        return sum(1 for r in self.recoveries if r.recovered_at is None)

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    @property
    def goodput_ratio(self) -> Optional[float]:
        """Delivered/offered words, when the engine tracked offered load."""
        if self.offered_words <= 0:
            return None
        return self.delivered_words / self.offered_words

    def register_views(self, registry, prefix: str = "resilience") -> None:
        """Expose the headline numbers as live gauges in a telemetry
        :class:`~repro.telemetry.registry.MetricsRegistry` (callable
        views over this dataclass; the public API is unchanged)."""
        for name, fn in {
            f"{prefix}.faults_injected": lambda: self.faults_injected,
            f"{prefix}.faults_missed": lambda: self.faults_missed,
            f"{prefix}.unrecovered": lambda: self.unrecovered,
            f"{prefix}.total_drops": lambda: self.total_drops,
            f"{prefix}.mttr_cycles": lambda: self.mttr_cycles,
            f"{prefix}.goodput_ratio": lambda: self.goodput_ratio,
        }.items():
            registry.gauge(name, fn)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "faults_injected": self.faults_injected,
            "faults_missed": self.faults_missed,
            "mttr_cycles": self.mttr_cycles,
            "max_recovery_cycles": self.max_recovery_cycles,
            "unrecovered": self.unrecovered,
            "drops": dict(self.drops),
            "total_drops": self.total_drops,
            "offered_words": self.offered_words,
            "delivered_words": self.delivered_words,
            "goodput_ratio": self.goodput_ratio,
            "recoveries": [r.to_dict() for r in self.recoveries],
        }
