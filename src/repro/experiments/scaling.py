"""Section 8.5: scaling the Rotating Crossbar beyond four ports.

The ring generalizes directly: N crossbar tiles, token rotating over N
positions, paths up to N/2 hops.  Two regimes emerge, quantified here:

* **Neighbor traffic** (shift-1 permutations): every flow holds one ring
  segment, so aggregate peak bandwidth scales ~linearly with N.
* **Antipodal traffic** (shift-N/2): each flow crosses half the ring and
  the bisection (2 directed links each way) caps concurrency at ~4
  flows regardless of N -- aggregate rate stays near the 4-port level.

This is exactly the trade the thesis defers to future work ("one
solution is simply to build a larger router out of multiple of these
small 4-port routers/crossbars", section 8.5): past a few ports, a ring
needs a richer topology for adversarial permutations.
"""

from __future__ import annotations

from repro.core.fabricsim import FabricSimulator, saturated_permutation
from repro.core.ring import RingGeometry
from repro.core.token import RotatingToken
from repro.experiments.common import ExperimentResult
from repro.config import CostModel, SimConfig
from repro.traffic.build import fabric_source, shard_source
from repro.traffic.spec import (
    PatternSpec,
    SizeSpec,
    TrafficSpec,
    spec_from_legacy,
)


def run(
    port_counts=(4, 8, 16, 32),
    size_bytes: int = 1024,
    quanta: int = 3000,
    seed: int = 0,
    space_port_counts=(16, 64, 256),
    space_partitions: int = 0,
) -> ExperimentResult:
    """Large rings are affordable here because every quantum indexes the
    compiled allocation tables and the deterministic permutations also
    fast-forward through their steady-state cycle (bit-identical to the
    plain step loop, so the reported numbers are unchanged); the
    stochastic uniform runs step every quantum."""
    result = ExperimentResult(
        name="ext_scaling",
        description=f"N-port rotating crossbar, {size_bytes}B packets",
    )
    words = CostModel.default().bytes_to_words(size_bytes)
    uniform_spec = TrafficSpec(
        pattern=PatternSpec(kind="uniform"), sizes=SizeSpec(bytes=size_bytes)
    )
    for n in port_counts:
        ring = RingGeometry(n)
        sim_nb = FabricSimulator(
            ring=ring, token=RotatingToken(n), fast_forward=True
        )
        neighbor = sim_nb.run(
            saturated_permutation(words, shift=1, n=n),
            quanta=quanta,
            warmup_quanta=200,
        )
        sim = FabricSimulator(
            ring=ring, token=RotatingToken(n), fast_forward=True
        )
        peak = sim.run(
            saturated_permutation(words, shift=max(1, n // 2), n=n),
            quanta=quanta,
            warmup_quanta=200,
        )
        sim2 = FabricSimulator(ring=ring, token=RotatingToken(n))
        avg = sim2.run(
            fabric_source(uniform_spec, SimConfig(ports=n, seed=seed)),
            quanta=quanta,
            warmup_quanta=200,
        )
        result.add(f"neighbor_gbps_N{n}", neighbor.gbps)
        result.add(f"antipodal_gbps_N{n}", peak.gbps)
        result.add(f"avg_gbps_N{n}", avg.gbps)
        result.add(f"mean_grants_N{n}", avg.mean_grants_per_quantum)

    # Past N=32 a single ring stops being the interesting topology; the
    # space-partitioned Clos (DESIGN.md §13/§15) carries the curve to
    # N=256 by distributing 3*sqrt(N) crossbar chips across worker
    # processes (``space_partitions=0`` picks the adaptive
    # min(middle-stage chips, cpu_count)).
    import math

    from repro.core.spacetopo import clos_topology
    from repro.parallel.space_shard import (
        SpaceSpec,
        auto_partitions,
        run_space,
    )

    for n in space_port_counts:
        k = math.isqrt(n)
        if k * k != n:
            raise ValueError(f"space Clos needs a square port count, got {n}")
        partitions = space_partitions or auto_partitions(
            clos_topology(k)
        )
        # The N=256 fabric steps 48 chips per quantum; a shorter
        # (post-warmup) horizon keeps the experiment affordable without
        # changing the saturated steady-state rate it reports.
        q = quanta if n <= 64 else max(400, quanta // 4)
        spec = SpaceSpec(
            k=k,
            latency=4,
            partitions=partitions,
            source=SpaceSpec.pack_source(shard_source(
                spec_from_legacy("permutation", size_bytes, shift=n // 2)
            )),
            quanta=q,
            warmup_quanta=200,
        )
        stats, info = run_space(spec)
        result.add(f"space_clos_antipodal_gbps_N{n}", stats.gbps)
        result.add(f"space_clos_workers_N{n}", float(info.workers))
    result.notes = (
        "neighbor permutations scale ~linearly with N; antipodal "
        "permutations are capped by the ring bisection (~4 concurrent "
        "half-ring flows however large N grows) -- the scaling caveat "
        "behind the thesis's multi-crossbar future-work proposal.  The "
        "space-partitioned Clos rows show the composed topology carrying "
        "antipodal traffic out to N=256 across distributed chip "
        "partitions (adaptive worker counts)."
    )
    return result
