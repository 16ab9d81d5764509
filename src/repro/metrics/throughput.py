"""Throughput measurement over a cycle window."""

from __future__ import annotations

from typing import Optional

from repro.config import CostModel

_CLOCK_HZ = CostModel.default().clock_hz


class ThroughputMeter:
    """Counts delivered bits/packets inside ``[warmup, stop)`` cycles.

    Sinks call :meth:`record` for every delivered packet; the meter
    ignores deliveries outside the measurement window so pipeline
    fill/drain does not bias the rate.
    """

    def __init__(self, warmup_cycles: int = 0, stop_cycle: Optional[int] = None):
        if warmup_cycles < 0:
            raise ValueError("warmup must be >= 0")
        self.warmup = warmup_cycles
        self.stop = stop_cycle
        self.bits = 0
        self.packets = 0
        self.first_cycle: Optional[int] = None
        self.last_cycle: Optional[int] = None
        self.total_seen = 0

    def record(self, cycle: int, nbytes: int) -> None:
        self.total_seen += 1
        if cycle < self.warmup:
            return
        if self.stop is not None and cycle >= self.stop:
            return
        if self.first_cycle is None:
            self.first_cycle = cycle
        self.last_cycle = cycle
        self.bits += nbytes * 8
        self.packets += 1

    # ------------------------------------------------------------------
    def window_cycles(self, end_cycle: Optional[int] = None) -> int:
        """Measurement span: warmup to ``end_cycle`` (or stop, or last)."""
        end = end_cycle
        if end is None:
            end = self.stop if self.stop is not None else self.last_cycle
        if end is None:
            return 0
        return max(0, end - self.warmup)

    def gbps(
        self, end_cycle: Optional[int] = None, clock_hz: float = _CLOCK_HZ
    ) -> float:
        cycles = self.window_cycles(end_cycle)
        if cycles == 0:
            return 0.0
        return self.bits * clock_hz / cycles / 1e9

    def mpps(
        self, end_cycle: Optional[int] = None, clock_hz: float = _CLOCK_HZ
    ) -> float:
        cycles = self.window_cycles(end_cycle)
        if cycles == 0:
            return 0.0
        return self.packets * clock_hz / cycles / 1e6
