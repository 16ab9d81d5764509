"""Latency vs. offered load: the router's queueing characteristic.

Not a figure in the thesis (its evaluation is saturated-throughput
only), but the standard router characterization its edge-router framing
implies, and the natural consumer of the line-card machinery: uniform
traffic paced at a fraction of line rate, measuring delivered goodput,
mean and p99 latency, and where line-card drops begin.  The knee must
sit at the fabric's measured average capacity -- that consistency is
asserted by the benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.config import CostModel, SimConfig
from repro.router.router import RawRouter
from repro.traffic.build import fabric_source, router_traffic
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec

_COSTS = CostModel.default()

#: Per-port line rate of the model: one 32-bit word per cycle at 250 MHz.
LINE_RATE_GBPS = _COSTS.word_bits * _COSTS.clock_hz / 1e9


def run(
    loads=(0.2, 0.4, 0.6, 0.8, 0.95),
    size_bytes: int = 512,
    packets_per_port: int = 400,
    seed: int = 42,
) -> ExperimentResult:
    result = ExperimentResult(
        name="load_latency",
        description=f"Latency vs offered load, {size_bytes}B uniform traffic",
    )
    spec = TrafficSpec(
        pattern=PatternSpec(kind="uniform"), sizes=SizeSpec(bytes=size_bytes)
    )
    config = SimConfig(seed=seed)
    knee_gbps = None
    for load in loads:
        router = RawRouter(warmup_cycles=20_000)
        # Saturated draws, paced by the line cards' own generator.
        model, factory, _ = router_traffic(spec, config)
        sources = router.attach_linecards(
            model,
            factory,
            offered_load=load,
            rng=np.random.default_rng(seed),
            packets_per_port=packets_per_port,
        )
        res = router.run(target_packets=int(packets_per_port * 4 * 0.9))
        lat = res.latency_summary()
        offered = sum(s.sent for s in sources)
        drops = sum(s.dropped for s in sources)
        result.add(f"gbps_at_{load}", res.gbps)
        result.add(f"mean_us_at_{load}", lat.get("mean_us", float("nan")))
        result.add(f"p99_us_at_{load}", lat.get("p99_us", float("nan")))
        result.add(f"drop_pct_at_{load}", 100.0 * drops / offered if offered else 0.0)
        knee_gbps = res.gbps
    # Consistency: the saturating load's goodput approaches the fabric's
    # measured average capacity for this packet size.
    from repro.core.fabricsim import FabricSimulator

    fabric_cap = FabricSimulator().run(
        fabric_source(spec, config),
        quanta=3000,
        warmup_quanta=200,
    ).gbps
    result.add("fabric_avg_capacity_gbps", fabric_cap)
    result.add("top_load_goodput_over_capacity", (knee_gbps or 0.0) / fabric_cap)
    result.notes = (
        "latency stays near store-and-forward until offered load crosses "
        "the fabric's average capacity, then input queues fill and the "
        "external buffer starts dropping (the thesis's section 4.4 "
        "assumption: FIFO delivery, drops external to the chip)."
    )
    return result
