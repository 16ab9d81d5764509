"""Packet latency statistics."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.config import CostModel

if TYPE_CHECKING:
    import numpy as np


def percentile(samples: Sequence[float], q: float) -> float:
    """``np.percentile(samples, q)`` with the default linear method, bit
    for bit, without loading ``numpy.ma``: the first ``np.percentile``
    call in a process imports it, 10-20 ms once per process, which a
    single router run pays in full.

    ``samples`` must be non-empty and hold no NaN.  The interpolation is
    numpy's own ``_lerp``, whose two forms differ in the last bit, so
    the branch on ``t`` is part of the contract.
    """
    import numpy as np

    return _percentile_sorted(np.sort(np.asarray(samples)), q)


def _percentile_sorted(xs: np.ndarray, q: float) -> float:
    """:func:`percentile` of ``xs``, a sorted 1-D array."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    vi = (len(xs) - 1) * (q / 100)
    lo = math.floor(vi)
    t = vi - lo
    a = xs[lo]
    b = xs[lo + 1] if lo + 1 < len(xs) else a
    if t >= 0.5:
        return float(b - (b - a) * (1 - t))
    return float(a + (b - a) * t)


class LatencyStats:
    """Collects per-packet cycle latencies; reports percentiles."""

    def __init__(self):
        self._samples: List[int] = []

    def record(self, arrival_cycle: int, departure_cycle: int) -> None:
        if departure_cycle < arrival_cycle:
            raise ValueError("departure before arrival")
        self._samples.append(departure_cycle - arrival_cycle)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def empty(self) -> bool:
        return not self._samples

    def cycles(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self._samples, dtype=np.int64)

    def mean(self) -> float:
        import numpy as np

        return float(np.mean(self._samples)) if self._samples else float("nan")

    def percentile(self, q: float) -> float:
        if not self._samples:
            return float("nan")
        return percentile(self._samples, q)

    def summary(self, clock_hz: float = CostModel.default().clock_hz) -> Dict[str, float]:
        """Mean/median/p99 in cycles and microseconds."""
        if not self._samples:
            return {}
        import numpy as np

        arr = self.cycles()
        xs = np.sort(arr)
        out = {
            "count": float(arr.size),
            "mean_cycles": float(arr.mean()),
            "p50_cycles": _percentile_sorted(xs, 50),
            "p99_cycles": _percentile_sorted(xs, 99),
            "max_cycles": float(arr.max()),
        }
        out["mean_us"] = out["mean_cycles"] / clock_hz * 1e6
        out["p99_us"] = out["p99_cycles"] / clock_hz * 1e6
        return out
