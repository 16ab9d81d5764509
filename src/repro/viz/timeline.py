"""ASCII per-tile utilization timelines (thesis Fig 7-3 as text).

Each row is a tile; each column is a bin of cycles.  ``#`` = computing,
``.`` = blocked (on transmit, receive, or cache miss -- the figure's
gray), ``x`` = link down, ``~`` = stalled by an injected fault, space =
idle.  Bins mixing states show the majority state.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.metrics.utilization import (
    BLOCKED_CODE,
    BUSY_CODE,
    DOWN_CODE,
    IDLE_CODE,
    STALLED_CODE,
    state_matrix,
)
from repro.sim.trace import Trace

_GLYPH = {
    IDLE_CODE: " ",
    BUSY_CODE: "#",
    BLOCKED_CODE: ".",
    DOWN_CODE: "x",
    STALLED_CODE: "~",
}


def render_timeline(
    trace: Trace,
    keys: Sequence[str],
    start: int = 0,
    stop: Optional[int] = None,
    width: int = 80,
    labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render the trace window as an ASCII Gantt chart.

    ``width`` columns cover ``[start, stop)``; each column is a bin of
    ``(stop-start)/width`` cycles shown as its majority state.
    """
    if stop is None:
        stop = trace.horizon()
    if stop <= start:
        raise ValueError("empty window")
    if width < 1:
        raise ValueError("width must be positive")
    mat = state_matrix(trace, keys, start, stop)
    span = stop - start
    width = min(width, span)
    edges = np.linspace(0, span, width + 1).astype(int)
    label_width = max(
        (len((labels or {}).get(k, k)) for k in keys), default=4
    )
    lines = [
        f"{'':<{label_width}} cycles {start}..{stop}"
        "  (#=busy  .=blocked  x=down  ~=stalled  ' '=idle)"
    ]
    for row, key in enumerate(keys):
        cells = []
        for b in range(width):
            lo, hi = edges[b], edges[b + 1]
            if hi <= lo:
                cells.append(" ")
                continue
            counts = np.bincount(mat[row, lo:hi], minlength=5)
            cells.append(_GLYPH[int(np.argmax(counts))])
        name = (labels or {}).get(key, key)
        lines.append(f"{name:<{label_width}} {''.join(cells)}")
    return "\n".join(lines)
