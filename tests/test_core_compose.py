"""Clos composition of 4-port Rotating Crossbars (section 8.5)."""

import pytest

from repro.config import SimConfig
from repro.core.compose import ClosFabric, clos_vs_single_ring
from repro.core.fabricsim import saturated_permutation
from repro.traffic.build import fabric_source
from repro.traffic.spec import spec_from_legacy


class TestConstruction:
    def test_port_count(self):
        assert ClosFabric(k=4).num_ports == 16
        assert ClosFabric(k=2).num_ports == 4

    def test_k_validated(self):
        with pytest.raises(ValueError):
            ClosFabric(k=1)

    def test_destination_validated(self):
        clos = ClosFabric(k=2)
        with pytest.raises(ValueError):
            clos.run(lambda p: (9, 16), quanta=1)


class TestConservation:
    def test_words_match_packets(self):
        clos = ClosFabric()
        stats = clos.run(
            fabric_source(spec_from_legacy("uniform", 256), SimConfig(ports=16)),
            quanta=600,
            warmup_quanta=60,
        )
        assert stats.delivered_packets > 1000
        # Single-fragment packets: words == packets * 64 exactly.
        assert stats.delivered_words == stats.delivered_packets * 64

    def test_permutation_delivers_to_right_ports(self):
        clos = ClosFabric()
        stats = clos.run(
            saturated_permutation(64, shift=5, n=16), quanta=400, warmup_quanta=40
        )
        # every port receives (its shifted source saturates it)
        assert all(c > 0 for c in stats.per_port_packets)

    def test_fragmentation_through_stages(self):
        clos = ClosFabric(max_quantum_words=64)
        stats = clos.run(
            saturated_permutation(256, shift=8, n=16), quanta=800, warmup_quanta=80
        )
        assert stats.delivered_packets > 50


class TestScalingClaim:
    def test_clos_beats_ring_on_antipodal(self):
        ring, clos = clos_vs_single_ring(num_ports=16, words=256, quanta=800)
        assert clos > 3.0 * ring

    def test_ring_fine_on_neighbor(self):
        ring, clos = clos_vs_single_ring(num_ports=16, words=256, quanta=800, shift=1)
        # Neighbor traffic: the single ring is already near line rate;
        # the Clos need not beat it (it pays pipeline overheads).
        assert ring > 90
        assert clos > 0.6 * ring

    def test_square_port_count_required(self):
        with pytest.raises(ValueError):
            clos_vs_single_ring(num_ports=8, quanta=10)


class TestAdaptiveRouting:
    def test_hotspot_on_middle_resolves(self):
        """All flows initially hash to the same middle crossbar; the
        retry-based reselection must spread them so throughput stays
        well above a single middle's capacity."""
        clos = ClosFabric()
        # shift=4: dest = src+4 -> dest % 4 constant per input crossbar,
        # so naive hashing piles onto few middles; adaptivity spreads it.
        stats = clos.run(
            saturated_permutation(256, shift=4, n=16), quanta=800, warmup_quanta=80
        )
        assert stats.gbps > 50
