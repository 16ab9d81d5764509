"""Traffic generation: one replayable traffic layer for every engine.

The thesis's evaluation uses two traffic regimes: conflict-free
permutation traffic for peak rate (section 7.2) and uniform traffic
"under complete fairness" for the average rate (section 7.3).  This
package provides those plus the adversarial workloads real switch cores
are judged on -- bursty trains, hotspots (static and drifting), IMIX
size mixes, on-off/MMPP and heavy-tailed arrivals, and recorded-trace
replay -- all behind one declarative, schema-tagged
:class:`~repro.traffic.spec.TrafficSpec` and one factory module,
:mod:`repro.traffic.build`, that every engine and baseline constructs
its sources through.

Stochastic draws are counter-based (:mod:`repro.traffic.rng`), so each
port's draw sequence is independent of every other port's: the
space-partitioned fabric (:mod:`repro.parallel.space_shard`) and the
many-worlds lanes (:mod:`repro.parallel.manyworlds`) reproduce the
serial draws while polling ports in their own order.
"""

from repro.traffic.arrivals import IIDSlotArrivals
from repro.traffic.build import shard_source, size_distribution, slot_arrivals
from repro.traffic.model import SpecModel, TrafficModel
from repro.traffic.replay import TraceReplay, iter_flows, scan_trace
from repro.traffic.sizes import (
    PAPER_SIZES,
    BimodalSizes,
    FixedSize,
    IMix,
    SizeDistribution,
    UniformSizes,
)
from repro.traffic.spec import (
    PRESETS,
    TRAFFIC_SCHEMA,
    ArrivalSpec,
    PatternSpec,
    SizeSpec,
    TrafficSpec,
    resolve_traffic,
    spec_from_legacy,
)
from repro.traffic.workload import PacketFactory

__all__ = [
    "SizeDistribution",
    "FixedSize",
    "IMix",
    "UniformSizes",
    "BimodalSizes",
    "PAPER_SIZES",
    "IIDSlotArrivals",
    "PacketFactory",
    # The declarative layer.
    "TrafficSpec",
    "PatternSpec",
    "SizeSpec",
    "ArrivalSpec",
    "TRAFFIC_SCHEMA",
    "PRESETS",
    "resolve_traffic",
    "spec_from_legacy",
    "TrafficModel",
    "SpecModel",
    "TraceReplay",
    "iter_flows",
    "scan_trace",
    # The factory module's package-level names.
    "shard_source",
    "slot_arrivals",
    "size_distribution",
]
