"""Text rendering: ASCII tile-utilization timelines and result tables."""

from repro.viz.timeline import render_timeline
from repro.viz.tables import format_table, format_comparison

__all__ = [
    "render_timeline",
    "format_table",
    "format_comparison",
]
