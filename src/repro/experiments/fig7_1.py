"""Fig 7-1: peak and average router throughput vs packet size vs Click.

Peak (top chart): conflict-free permutation traffic, saturated inputs --
every quantum all four ports stream, so the rate is set by the quantum
phase cost.  Average (bottom chart): uniform destinations under
"complete fairness"; output contention idles blocked inputs and the rate
drops to ~69% of peak.  The Click bar is measured by actually pushing
the same packets through the Click element graph.

Two engines produce the Raw numbers: the quantum-level fabric engine
(default -- fast, used by the benchmarks) and the full phase-level
router engine with ingress/lookup/egress pipelines (``engine="router"``,
used by the integration tests to confirm the pipeline stages don't move
the bottleneck).  Both go through the shared
:class:`repro.engines.Engine` interface, so what this experiment runs is
exactly what ``python -m repro sweep`` fans across workers.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.click import standard_ip_router
from repro.config import SimConfig
from repro.engines import FabricEngine, RouterEngine, WorkloadSpec
from repro.experiments import paperdata
from repro.experiments.common import ExperimentResult
from repro.traffic.build import router_traffic
from repro.traffic.sizes import PAPER_SIZES
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec


def _workload(size_bytes: int, uniform: bool, **budget) -> WorkloadSpec:
    return WorkloadSpec(
        pattern="uniform" if uniform else "permutation",
        packet_bytes=size_bytes,
        **budget,
    )


def _fabric_gbps(size_bytes: int, uniform: bool, quanta: int, seed: int) -> float:
    engine = FabricEngine(SimConfig(seed=seed))
    return engine.run(_workload(size_bytes, uniform, quanta=quanta)).gbps


def _router_gbps(size_bytes: int, uniform: bool, packets: int, seed: int) -> float:
    engine = RouterEngine(SimConfig(fidelity="router", seed=seed))
    return engine.run(_workload(size_bytes, uniform, packets=packets)).gbps


def measure_click_gbps(size_bytes: int = 64, packets: int = 2000, seed: int = 0) -> float:
    """Forward ``packets`` through the Click graph; aggregate Gbps."""
    spec = TrafficSpec(
        pattern=PatternSpec(kind="uniform", exclude_self=False),
        sizes=SizeSpec(bytes=size_bytes),
    )
    model, factory, _ = router_traffic(spec, SimConfig(seed=seed))
    batch = [
        (i % 4, factory.from_workload(model, i % 4)) for i in range(packets)
    ]
    return standard_ip_router(4).run_packets(batch).gbps


def run_peak(
    sizes: Iterable[int] = PAPER_SIZES,
    quanta: int = 2000,
    seed: int = 0,
    engine: str = "fabric",
    click_packets: int = 2000,
) -> ExperimentResult:
    """The top chart of Fig 7-1."""
    result = ExperimentResult(
        name="fig7_1_peak",
        description="Peak throughput (Gbps), conflict-free traffic, vs Click",
    )
    result.add("click_64B", measure_click_gbps(64, click_packets, seed), paperdata.CLICK_GBPS)
    for size in sizes:
        if engine == "fabric":
            gbps = _fabric_gbps(size, uniform=False, quanta=quanta, seed=seed)
        elif engine == "router":
            gbps = _router_gbps(size, uniform=False, packets=quanta, seed=seed)
        else:
            raise ValueError(f"unknown engine {engine!r}")
        result.add(f"{size}B", gbps, paperdata.PEAK_GBPS.get(size))
    # The headline packet rate: 3.3 Mpps at 1,024-byte packets.
    gbps_1024 = result.measured("1024B")
    mpps = gbps_1024 * 1e9 / (1024 * 8) / 1e6
    result.add("peak_mpps_1024B", mpps, paperdata.PEAK_MPPS)
    return result


def run_average(
    sizes: Iterable[int] = PAPER_SIZES,
    quanta: int = 4000,
    seed: int = 0,
    engine: str = "fabric",
    click_packets: int = 2000,
) -> ExperimentResult:
    """The bottom chart of Fig 7-1 (uniform traffic, output contention)."""
    result = ExperimentResult(
        name="fig7_1_avg",
        description="Average throughput (Gbps), uniform traffic, vs Click",
    )
    result.add("click_64B", measure_click_gbps(64, click_packets, seed), paperdata.CLICK_GBPS)
    for size in sizes:
        if engine == "fabric":
            gbps = _fabric_gbps(size, uniform=True, quanta=quanta, seed=seed)
        elif engine == "router":
            gbps = _router_gbps(size, uniform=True, packets=quanta, seed=seed)
        else:
            raise ValueError(f"unknown engine {engine!r}")
        result.add(f"{size}B", gbps, paperdata.AVG_GBPS.get(size))
    peak_1024 = _fabric_gbps(1024, uniform=False, quanta=quanta, seed=seed)
    result.add(
        "avg_to_peak_1024B",
        result.measured("1024B") / peak_1024,
        paperdata.AVG_TO_PEAK,
    )
    return result
