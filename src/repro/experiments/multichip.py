"""Section 8.5 realized: a (k*k)-port router from 3k k-port crossbars.

The thesis's scaling future-work: compose the 4-port Rotating Crossbar
rather than grow one ring.  This experiment measures why -- the single
k*k-ring's bisection caps antipodal permutations near the 4-port rate,
while a three-stage Clos of kxk Rotating Crossbars (with adaptive
middle-stage reselection) restores ~4x of it -- and what it costs
(3k crossbar chips and a 3-quantum pipeline instead of 1 ring).

``run()`` is parameterized over chip count (``k``: k*k external ports
on 3k chips) and -- via the space-partitioned engine
(:mod:`repro.parallel.space_shard`, DESIGN.md §13) -- the number of
worker processes the Clos is distributed across.  The distributed
numbers are asserted bit-identical to the serial reference before they
are reported, so the partitioned rows measure *the same* fabric.
"""

from __future__ import annotations

from repro.core.compose import ClosFabric, clos_vs_single_ring
from repro.experiments.common import ExperimentResult
from repro.config import CostModel, SimConfig
from repro.traffic.build import fabric_source
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec


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
    ``partitions``/``latency`` drive the same Clos through the
    space-partitioned token-window engine for the distributed rows
    (DESIGN.md §13).
    """
    num_ports = k * k
    result = ExperimentResult(
        name="ext_multichip",
        description=(
            f"{num_ports} ports: one big ring vs a Clos of {k}-port "
            f"crossbars ({3 * k} chips, P={partitions} space partitions)"
        ),
    )
    words = CostModel.default().bytes_to_words(size_bytes)

    ring_gbps, clos_gbps = clos_vs_single_ring(
        num_ports=num_ports, words=words, quanta=quanta, shift=num_ports // 2
    )
    result.add("antipodal_single_ring_gbps", ring_gbps)
    result.add("antipodal_clos_gbps", clos_gbps)
    result.add("antipodal_clos_gain", clos_gbps / ring_gbps if ring_gbps else 0.0)

    ring_n_gbps, clos_n_gbps = clos_vs_single_ring(
        num_ports=num_ports, words=words, quanta=quanta, shift=1
    )
    result.add("neighbor_single_ring_gbps", ring_n_gbps)
    result.add("neighbor_clos_gbps", clos_n_gbps)

    clos = ClosFabric(k=k)
    uniform_spec = TrafficSpec(
        pattern=PatternSpec(kind="uniform"), sizes=SizeSpec(bytes=size_bytes)
    )
    uni = clos.run(
        fabric_source(uniform_spec, SimConfig(ports=num_ports, seed=seed)),
        quanta=quanta,
        warmup_quanta=quanta // 10,
    )
    result.add("uniform_clos_gbps", uni.gbps)

    # The same Clos through the space-partitioned engine: serial
    # reference first, then P token-window workers, asserted identical.
    from repro.parallel.space_shard import (
        SpaceSpec,
        run_space,
        run_space_serial,
    )

    spec = SpaceSpec(
        k=k,
        latency=latency,
        partitions=partitions,
        source=SpaceSpec.pack_source(
            {"kind": "permutation", "words": words, "shift": num_ports // 2}
        ),
        quanta=quanta,
        warmup_quanta=quanta // 10,
    )
    serial = run_space_serial(spec)
    dist, info = run_space(spec)
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
