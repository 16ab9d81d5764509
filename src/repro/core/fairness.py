"""Fairness analysis of the Rotating Crossbar (thesis section 5.4).

The token guarantees that a backlogged input is master at least once
every N quanta (every ``sum(weights)`` for the weighted variant) and a
requesting master is always granted, so the starvation gap is bounded --
unlike non-token schemes where upstream tiles can flood the static
network indefinitely.  :func:`analyze_service` measures the realized
bounds and shares from a quantum-by-quantum history; the tests and the
fairness benchmark assert the bound over adversarial traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.allocator import Allocation


@dataclass
class FairnessReport:
    """Per-port service statistics over a run."""

    num_ports: int
    quanta: int
    offered: List[int]  #: quanta in which the port had a request
    served: List[int]  #: quanta in which the port was granted
    served_words: List[int]  #: words actually moved per port
    max_gap: List[int]  #: longest run of consecutive denied-while-backlogged

    @property
    def service_ratio(self) -> List[float]:
        return [
            s / o if o else 0.0 for s, o in zip(self.served, self.offered)
        ]

    @property
    def jains(self) -> float:
        return jains_index(self.served_words)

    def worst_starvation_gap(self) -> int:
        return max(self.max_gap, default=0)


def jains_index(shares: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one port hogs."""
    import numpy as np

    x = np.asarray(shares, dtype=float)
    if x.size == 0 or not np.any(x):
        return 1.0
    return float(x.sum() ** 2 / (x.size * (x * x).sum()))


def analyze_service(
    history: Sequence[Tuple[Tuple[Optional[int], ...], Allocation]],
    words_per_grant: Optional[Sequence[Dict[int, int]]] = None,
) -> FairnessReport:
    """Build a :class:`FairnessReport` from (requests, allocation) pairs.

    ``words_per_grant[q]`` optionally maps granted input -> words moved
    in quantum ``q`` (defaults to 1 per grant, i.e. quantum-count
    fairness).
    """
    if not history:
        raise ValueError("empty history")
    n = len(history[0][0])
    offered = [0] * n
    served = [0] * n
    served_words = [0] * n
    gap = [0] * n
    max_gap = [0] * n
    for q, (requests, alloc) in enumerate(history):
        for port in range(n):
            if requests[port] is None:
                gap[port] = 0
                continue
            offered[port] += 1
            if port in alloc.grants:
                served[port] += 1
                words = 1
                if words_per_grant is not None:
                    words = words_per_grant[q].get(port, 0)
                served_words[port] += words
                gap[port] = 0
            else:
                gap[port] += 1
                max_gap[port] = max(max_gap[port], gap[port])
    return FairnessReport(
        num_ports=n,
        quanta=len(history),
        offered=offered,
        served=served,
        served_words=served_words,
        max_gap=max_gap,
    )
