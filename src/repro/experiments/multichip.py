"""Section 8.5 realized: a (k*k)-port router from 3k k-port crossbars.

The thesis's scaling future-work: compose the 4-port Rotating Crossbar
rather than grow one ring.  This experiment measures why -- the single
k*k-ring's bisection caps antipodal permutations near the 4-port rate,
while a three-stage Clos of kxk Rotating Crossbars restores ~4x of it --
and what it costs (3k crossbar chips and a 3-quantum pipeline instead of
1 ring).

Every Clos row runs on the space engine's stepper
(:class:`~repro.core.spacetopo.PartitionSim`, DESIGN.md §13): the
reference rows in one process
(:func:`~repro.parallel.space_shard.run_space_serial`), the distributed
row across ``partitions`` worker processes
(:func:`~repro.parallel.space_shard.run_space`).  The distributed
numbers are asserted bit-identical to the serial reference before they
are reported, so the partitioned rows measure *the same* fabric.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.core.fabricsim import FabricSimulator
from repro.core.ring import RingGeometry
from repro.experiments.common import ExperimentResult
from repro.traffic.build import fabric_source, shard_source
from repro.traffic.spec import (
    PatternSpec,
    SizeSpec,
    TrafficSpec,
    spec_from_legacy,
)


def run(
    size_bytes: int = 1024,
    quanta: int = 2000,
    seed: int = 0,
    k: int = 4,
    partitions: int = 3,
    latency: int = 4,
) -> ExperimentResult:
    """Compare one big ring against composed crossbars at ``k*k`` ports.

    ``k`` sets the chip size and port count (k*k ports from 3k chips);
    ``latency`` is every Clos row's inter-chip channel latency in quanta,
    and ``partitions`` the worker count of the distributed row
    (DESIGN.md §13).
    """
    # Loaded here, not at module level, so importing the experiment
    # registry (``import repro.cli``) does not load the space engine.
    from repro.parallel.space_shard import (
        SpaceSpec,
        run_space,
        run_space_serial,
    )

    num_ports = k * k
    result = ExperimentResult(
        name="ext_multichip",
        description=(
            f"{num_ports} ports: one big ring vs a Clos of {k}-port "
            f"crossbars ({3 * k} chips, P={partitions} space partitions)"
        ),
    )
    warmup = quanta // 10

    def ring_gbps(traffic: TrafficSpec) -> float:
        sim = FabricSimulator(ring=RingGeometry(num_ports))
        source = fabric_source(traffic, SimConfig(ports=num_ports, seed=seed))
        return sim.run(source, quanta=quanta, warmup_quanta=warmup).gbps

    def clos(traffic: TrafficSpec) -> SpaceSpec:
        return SpaceSpec(
            k=k,
            latency=latency,
            partitions=partitions,
            source=SpaceSpec.pack_source(shard_source(traffic, seed=seed)),
            quanta=quanta,
            warmup_quanta=warmup,
        )

    antipodal = spec_from_legacy(
        "permutation", size_bytes, shift=num_ports // 2
    )
    antipodal_clos = clos(antipodal)
    ring = ring_gbps(antipodal)
    serial = run_space_serial(antipodal_clos)
    result.add("antipodal_single_ring_gbps", ring)
    result.add("antipodal_clos_gbps", serial.gbps)
    result.add("antipodal_clos_gain", serial.gbps / ring if ring else 0.0)

    neighbor = spec_from_legacy("permutation", size_bytes, shift=1)
    result.add("neighbor_single_ring_gbps", ring_gbps(neighbor))
    result.add("neighbor_clos_gbps", run_space_serial(clos(neighbor)).gbps)

    uniform = TrafficSpec(
        pattern=PatternSpec(kind="uniform"), sizes=SizeSpec(bytes=size_bytes)
    )
    result.add("uniform_clos_gbps", run_space_serial(clos(uniform)).gbps)

    # The antipodal Clos again across P token-window workers, asserted
    # identical to its serial run.
    dist, info = run_space(antipodal_clos)
    if dist.counters() != serial.counters():
        raise AssertionError(
            "space-partitioned Clos diverged from the serial reference"
        )
    result.add("space_clos_antipodal_gbps", dist.gbps)
    result.add("space_partitions", float(info.workers))
    result.add(
        "space_boundary_flits_total", float(sum(info.boundary_flits))
    )
    result.add("space_bytes_moved", float(sum(info.bytes_moved)))
    result.notes = (
        "the composition trades 3k chips and a 3-quantum pipeline for "
        "bisection bandwidth: adversarial permutations scale again, the "
        "thesis's multi-crossbar proposal quantified -- and the same "
        "Clos runs space-partitioned across worker processes "
        "bit-identically (DESIGN.md §13)."
    )
    return result
