"""Fig 7-3: per-tile utilization of the Raw processor, 64 B vs 1,024 B.

The thesis plots 800 cycles of per-tile activity: gray where a tile
processor is blocked on transmit, receive, or cache miss.  Its headline
observations, which this experiment reproduces from the word-level
model's trace:

* small packets leave the chip poorly utilized -- the ingress tiles
  (4, 7, 8, 11) sit blocked on the crossbar most of the time;
* large packets approach the static-network bandwidth limit -- busy
  fractions rise across the active tiles.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.metrics.utilization import UtilizationSummary, summarize_trace
from repro.raw.layout import INGRESS_TILES, CROSSBAR_RING, ROUTER_LAYOUT
from repro.router.wordlevel import WordLevelRouter
from repro.sim.trace import Trace
from repro.traffic.build import wordlevel_source
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec
from repro.viz.timeline import render_timeline

#: The figure's plot window, in cycles.
WINDOW_CYCLES = 800


def run_one(
    packet_bytes: int,
    window_start: int = 6000,
    window_cycles: int = WINDOW_CYCLES,
    seed: int = 7,
):
    """Word-level run traced over ``[window_start, window_start+window)``.

    Returns (utilization summaries by trace key, rendered ASCII timeline,
    word-level result).
    """
    trace = Trace(window_start, window_start + window_cycles)
    spec = TrafficSpec(
        pattern=PatternSpec(kind="uniform"), sizes=SizeSpec(bytes=packet_bytes)
    )
    source = wordlevel_source(spec, SimConfig(seed=seed))
    router = WordLevelRouter(source, trace=trace)
    res = router.run(until_cycles=window_start + window_cycles)
    keys = [f"t{t}" for t in range(16) if f"t{t}" in trace.keys()]
    timeline = render_timeline(
        trace, keys, window_start, window_start + window_cycles, width=80
    )
    summaries = summarize_trace(trace, window_start, window_start + window_cycles)
    return summaries, timeline, res


def _mean_busy(summaries: Dict[str, UtilizationSummary], tiles) -> float:
    keys = [f"t{t}" for t in tiles]
    vals = [summaries[k].busy_frac for k in keys if k in summaries]
    return float(np.mean(vals)) if vals else 0.0


def _mean_blocked(summaries: Dict[str, UtilizationSummary], tiles) -> float:
    keys = [f"t{t}" for t in tiles]
    vals = [summaries[k].blocked_frac for k in keys if k in summaries]
    return float(np.mean(vals)) if vals else 0.0


#: Cycles used for the scalar utilization metrics (the 800-cycle render
#: window of the figure is too short for stable fractions under uniform
#: traffic; the claims are about steady state).
METRIC_WINDOW_CYCLES = 4000


def run(seed: int = 7) -> ExperimentResult:
    """Both panels of Fig 7-3, reduced to the claims' key quantities."""
    result = ExperimentResult(
        name="fig7_3",
        description="Per-tile utilization over an 800-cycle window (word-level)",
    )
    small, _, _ = run_one(64, window_cycles=METRIC_WINDOW_CYCLES, seed=seed)
    large, _, _ = run_one(1024, window_cycles=METRIC_WINDOW_CYCLES, seed=seed)
    _, timeline_small, _ = run_one(64, seed=seed)
    _, timeline_large, _ = run_one(1024, seed=seed)

    xb_small = _mean_busy(small, CROSSBAR_RING)
    xb_large = _mean_busy(large, CROSSBAR_RING)
    ing_blocked_small = _mean_blocked(small, INGRESS_TILES)
    ing_blocked_large = _mean_blocked(large, INGRESS_TILES)
    all_tiles = [t for layout in ROUTER_LAYOUT for t in layout.tiles]
    busy_small = _mean_busy(small, all_tiles)
    busy_large = _mean_busy(large, all_tiles)

    ing_busy_small = _mean_busy(small, INGRESS_TILES)
    ing_busy_large = _mean_busy(large, INGRESS_TILES)

    # Qualitative claims of section 7.4 rendered as ordered quantities.
    result.add("mean_tile_busy_64B", busy_small)
    result.add("mean_tile_busy_1024B", busy_large)
    result.add("busy_ratio_1024_over_64", busy_large / busy_small if busy_small else 0)
    result.add("ingress_busy_64B", ing_busy_small)
    result.add("ingress_busy_1024B", ing_busy_large)
    result.add("ingress_blocked_frac_64B", ing_blocked_small)
    result.add("ingress_blocked_frac_1024B", ing_blocked_large)
    result.add("crossbar_busy_64B", xb_small)
    result.add("crossbar_busy_1024B", xb_large)
    result.notes = (
        "claims: utilization is considerably lower for 64B than 1024B; "
        "ingress tiles 4/7/8/11 spend most of the 64B window blocked on "
        "the crossbar (the figure's gray).\n\n64-byte packets:\n"
        + timeline_small
        + "\n\n1024-byte packets:\n"
        + timeline_large
    )
    return result
