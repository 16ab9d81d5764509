"""Clos composition of k-port Rotating Crossbars (section 8.5).

The three-stage Clos is modelled once, by the space engine's stepper
(:class:`~repro.core.spacetopo.PartitionSim`); these checks run it in
one process through :func:`~repro.parallel.space_shard.run_space_serial`.
"""

import pytest

from repro.config import CostModel, SimConfig
from repro.core.fabricsim import FabricSimulator
from repro.core.ring import RingGeometry
from repro.core.spacetopo import PartitionSim, clos_topology
from repro.engines import WorkloadSpec, run_config
from repro.parallel.space_shard import SpaceSpec, run_space_serial
from repro.traffic.build import fabric_source, shard_source
from repro.traffic.spec import spec_from_legacy


def run_clos(traffic, quanta, warmup_quanta, **spec):
    """``traffic`` through a 16-port Clos in one process."""
    return run_space_serial(SpaceSpec(
        partitions=1,
        source=SpaceSpec.pack_source(shard_source(traffic)),
        quanta=quanta,
        warmup_quanta=warmup_quanta,
        **spec,
    ))


def ring_vs_clos(shift, quanta=800):
    """Gbps of one 16-port ring and of the 16-port Clos under a
    saturated 1,024 B permutation of ``shift``."""
    traffic = spec_from_legacy("permutation", 1024, shift=shift)
    warmup = quanta // 10
    ring = FabricSimulator(ring=RingGeometry(16)).run(
        fabric_source(traffic, SimConfig(ports=16)),
        quanta=quanta,
        warmup_quanta=warmup,
    )
    return ring.gbps, run_clos(traffic, quanta, warmup).gbps


class TestConstruction:
    def test_port_count(self):
        assert clos_topology(4).num_ports == 16
        assert clos_topology(2).num_ports == 4

    def test_k_validated(self):
        with pytest.raises(ValueError, match="at least 2 ports"):
            clos_topology(1)

    def test_destination_validated(self):
        topo = clos_topology(2)
        sim = PartitionSim(topo, range(topo.num_nodes))
        with pytest.raises(ValueError, match="destination 9 out of range"):
            sim.advance(lambda port: (9, 16), 0, 1, 0)


class TestConservation:
    def test_words_match_packets(self):
        stats = run_clos(spec_from_legacy("uniform", 256), 600, 60)
        assert stats.delivered_packets > 1000
        # Single-fragment packets: words == packets * 64 exactly.
        assert stats.delivered_words == stats.delivered_packets * 64

    def test_permutation_delivers_to_right_ports(self):
        stats = run_clos(spec_from_legacy("permutation", 256, shift=5), 400, 40)
        # every port receives (its shifted source saturates it)
        assert all(c > 0 for c in stats.per_port_packets)

    def test_fragmentation_through_stages(self):
        # 256-word packets cross every chip as four 64-word fragments;
        # each port still receives its whole share of packets.
        costs = CostModel.default().replace(max_quantum_words=64)
        expected_gbps = {1: 72.49557522123894, 4: 72.49557522123894,
                         5: 71.85964912280703, 8: 71.85964912280703}
        for shift, gbps in expected_gbps.items():
            traffic = spec_from_legacy("permutation", 1024, shift=shift)
            for latency in (1, 4):
                stats = run_clos(traffic, 800, 80, latency=latency, costs=costs)
                assert stats.delivered_packets == 3_200
                assert stats.delivered_words == 819_200
                assert stats.per_port_packets == [200] * 16
                assert stats.gbps == gbps


class TestScalingClaim:
    def test_clos_beats_ring_on_antipodal(self):
        ring, clos = ring_vs_clos(shift=8)
        assert clos > 3.0 * ring

    def test_ring_fine_on_neighbor(self):
        ring, clos = ring_vs_clos(shift=1)
        # Neighbor traffic: the single ring is already near line rate;
        # the Clos need not beat it (it pays pipeline overheads).
        assert ring > 90
        assert clos > 0.6 * ring

    def test_square_port_count_required(self):
        with pytest.raises(ValueError, match="square port count"):
            run_config(SimConfig(ports=8, fidelity="space"),
                       WorkloadSpec(quanta=10))
