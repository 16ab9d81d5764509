"""Control plane: route-update rate with the data plane under load.

The chapter-2 case studies put table maintenance on a network processor
so the forwarding path never stalls; this bench regenerates that
property on our router: a burst of route updates applies on schedule
while saturated uniform traffic keeps flowing at the undisturbed rate.
"""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.ip.addr import Prefix
from repro.router import NetworkProcessor, RawRouter, RouteUpdate
from repro.traffic.build import router_traffic
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec


def run_control_plane(updates=200, spacing=1_000, seed=0):
    result = ExperimentResult(
        name="control_plane",
        description="Route updates applied under saturated forwarding",
    )

    spec = TrafficSpec(
        pattern=PatternSpec(kind="uniform"), sizes=SizeSpec(bytes=512)
    )

    def build(with_updates: bool):
        router = RawRouter(warmup_cycles=20_000)
        model, factory, _ = router_traffic(spec, SimConfig(seed=seed))
        router.attach_saturated(model, factory)
        processor = None
        if with_updates:
            schedule = [
                RouteUpdate(20_000 + i * spacing, Prefix((i + 1) << 20, 16), i % 4)
                for i in range(updates)
            ]
            processor = NetworkProcessor(router, schedule)
            processor.attach()
        return router, processor

    baseline, _ = build(False)
    base_gbps = baseline.run(max_cycles=20_000 + updates * spacing + 30_000).gbps

    router, processor = build(True)
    res = router.run(max_cycles=20_000 + updates * spacing + 30_000)

    result.add("updates_applied", processor.log.count(), updates)
    result.add("gbps_with_updates", res.gbps)
    result.add("gbps_baseline", base_gbps)
    result.add("throughput_ratio", res.gbps / base_gbps if base_gbps else 0.0, 1.0)
    applied = [t for t, _ in processor.log.applied]
    mean_skew = float(np.mean([t - u.cycle for t, u in processor.log.applied]))
    result.add("mean_apply_skew_cycles", mean_skew)
    result.notes = (
        "updates ride the dynamic network and the control processor; the "
        "static-network data path never carries control traffic, so the "
        "forwarding rate is unchanged (the MGR division of labour)."
    )
    return result


def test_control_plane_updates(benchmark, record_table):
    result = benchmark.pedantic(run_control_plane, rounds=1, iterations=1)
    record_table(result)
    assert result.measured("updates_applied") == 200
    assert result.measured("throughput_ratio") == pytest.approx(1.0, abs=0.02)
    assert result.measured("mean_apply_skew_cycles") < 2_000
