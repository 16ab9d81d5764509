"""Arrival processes: when packets show up at an input.

Saturated inputs (the thesis's measurement regime) and stochastic
arrivals (Bernoulli, on-off/MMPP, heavy-tailed) are counter-based
draws of :class:`~repro.traffic.model.SpecModel`, selected by a
:class:`~repro.traffic.spec.ArrivalSpec`.  The cell-switch baselines
(:mod:`repro.baselines`) draw one slot of arrivals at a time
(:class:`IIDSlotArrivals`).
"""

from __future__ import annotations

from typing import List, Optional


class IIDSlotArrivals:
    """One slot of per-input Bernoulli arrivals with uniform destinations.

    Preserves the historical shared-generator draw order (per input:
    one ``random()`` gate, then one ``integers(0, n)`` destination) so
    the seeded chapter-2 baseline experiments stay bit-identical.
    """

    def __init__(self, n: int, rng):
        self.n = n
        self.rng = rng

    def slot(self, load: float) -> List[Optional[int]]:
        out: List[Optional[int]] = []
        for _ in range(self.n):
            if self.rng.random() < load:
                out.append(int(self.rng.integers(0, self.n)))
            else:
                out.append(None)
        return out
