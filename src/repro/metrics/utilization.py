"""Per-tile utilization from kernel traces (thesis Fig 7-3).

Fig 7-3 plots, per tile and per cycle, whether the tile processor is
computing or "blocked on transmit, receive, or cache miss" (gray).
:func:`summarize_trace` reduces a :class:`~repro.sim.Trace` to busy /
blocked / idle fractions per tile, and :func:`state_matrix` rasterizes
it for the ASCII timeline renderer in :mod:`repro.viz.timeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.sim.kernel import BLOCKED_STATES, BUSY, DOWN, STALLED
from repro.sim.trace import Trace

if TYPE_CHECKING:
    import numpy as np

#: Raster cell codes.
IDLE_CODE = 0
BUSY_CODE = 1
BLOCKED_CODE = 2
DOWN_CODE = 3
STALLED_CODE = 4

_FAULT_CODES = {DOWN: DOWN_CODE, STALLED: STALLED_CODE}


@dataclass
class UtilizationSummary:
    """Busy/blocked/idle fractions of one trace key over a window."""

    key: str
    window: int
    busy: int
    blocked: int
    #: Cycles inside an injected fault window (link down / stalled tile).
    faulted: int = 0

    @property
    def idle(self) -> int:
        return max(0, self.window - self.busy - self.blocked - self.faulted)

    @property
    def busy_frac(self) -> float:
        return self.busy / self.window if self.window else 0.0

    @property
    def blocked_frac(self) -> float:
        return self.blocked / self.window if self.window else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of cycles doing useful work (the Fig 7-3 quantity)."""
        return self.busy_frac


def summarize_trace(
    trace: Trace, start: int = 0, stop: Optional[int] = None
) -> Dict[str, UtilizationSummary]:
    """Per-key busy/blocked cycle counts over ``[start, stop)``."""
    if stop is None:
        stop = trace.horizon()
    if stop <= start:
        raise ValueError("empty window")
    out: Dict[str, UtilizationSummary] = {}
    for key in trace.keys():
        busy = blocked = faulted = 0
        for iv in trace.intervals(key):
            lo = max(iv.start, start)
            hi = min(iv.end, stop)
            if hi <= lo:
                continue
            if iv.state == BUSY:
                busy += hi - lo
            elif iv.state in BLOCKED_STATES:
                blocked += hi - lo
            elif iv.state in _FAULT_CODES:
                faulted += hi - lo
        out[key] = UtilizationSummary(
            key=key, window=stop - start, busy=busy, blocked=blocked,
            faulted=faulted,
        )
    return out


def state_matrix(
    trace: Trace,
    keys: Sequence[str],
    start: int,
    stop: int,
) -> np.ndarray:
    """Rasterize: rows = keys, columns = cycles, values = cell codes."""
    import numpy as np

    if stop <= start:
        raise ValueError("empty window")
    mat = np.zeros((len(keys), stop - start), dtype=np.uint8)
    for row, key in enumerate(keys):
        for iv in trace.intervals(key):
            lo = max(iv.start, start) - start
            hi = min(iv.end, stop) - start
            if hi <= lo:
                continue
            if iv.state == BUSY:
                code = BUSY_CODE
            elif iv.state in BLOCKED_STATES:
                code = BLOCKED_CODE
            else:
                code = _FAULT_CODES.get(iv.state, IDLE_CODE)
            mat[row, lo:hi] = code
    return mat
