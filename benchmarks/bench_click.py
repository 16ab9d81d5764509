"""The Click baseline on its own: forwarding rate vs packet size.

The thesis plots a single 0.23 Gbps bar; this bench regenerates it and
fills in the full Click curve (per-packet bound at small sizes, memory
bound at large), the two-orders-of-magnitude gap the Raw router opens.
"""

import pytest

from repro.baselines.click import standard_ip_router
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.experiments import paperdata
from repro.traffic.build import router_traffic
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec


def run_click_curve(packets=1500):
    result = ExperimentResult(
        name="click_curve",
        description="Click modular router forwarding rate (700 MHz PC model)",
    )
    for size in (64, 128, 256, 512, 1024):
        spec = TrafficSpec(
            pattern=PatternSpec(kind="uniform", exclude_self=False),
            sizes=SizeSpec(bytes=size),
        )
        model, factory, _ = router_traffic(spec, SimConfig(seed=0))
        batch = [
            (i % 4, factory.from_workload(model, i % 4)) for i in range(packets)
        ]
        res = standard_ip_router(4).run_packets(batch)
        result.add(
            f"{size}B_gbps",
            res.gbps,
            paperdata.CLICK_GBPS if size == 64 else None,
            kpps=res.kpps,
        )
    return result


def test_click_baseline(benchmark, record_table):
    result = benchmark.pedantic(run_click_curve, rounds=1, iterations=1)
    record_table(result)
    assert result.measured("64B_gbps") == pytest.approx(0.23, rel=0.12)
    assert result.measured("1024B_gbps") < 2.5
