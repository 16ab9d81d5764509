"""Quantum-level fabric simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.fabricsim import FabricSimulator, saturated_permutation
from repro.core.phases import quantum_cycles
from repro.core.ring import RingGeometry
from repro.traffic.build import fabric_source
from repro.traffic.spec import spec_from_legacy


def _source(pattern, words, seed, **kwargs):
    """The fabric source of a saturated ``4 * words``-byte spec."""
    spec = spec_from_legacy(pattern, 4 * words, **kwargs)
    return fabric_source(spec, SimConfig(seed=seed))


class TestPeak:
    def test_matches_closed_form(self):
        """Saturated permutation traffic: every quantum moves 4 x W words
        in quantum_cycles(W, expansion) cycles."""
        words = 256
        sim = FabricSimulator()
        stats = sim.run(saturated_permutation(words, shift=2), quanta=500, warmup_quanta=50)
        expected_wpc = 4 * words / quantum_cycles(words, 2)
        assert stats.words_per_cycle == pytest.approx(expected_wpc, rel=0.01)

    def test_peak_gbps_matches_paper_headline(self):
        sim = FabricSimulator()
        stats = sim.run(saturated_permutation(256, shift=2), quanta=1000, warmup_quanta=100)
        assert stats.gbps == pytest.approx(26.9, rel=0.02)
        assert stats.mpps == pytest.approx(3.3, rel=0.03)

    def test_all_grants_every_quantum(self):
        sim = FabricSimulator()
        stats = sim.run(saturated_permutation(64, shift=1), quanta=200, warmup_quanta=10)
        assert stats.grant_histogram[4] == stats.quanta
        assert stats.blocked_events == 0


class TestAverage:
    def test_avg_to_peak_ratio_near_paper(self):
        """Uniform traffic lands at ~69% of peak (section 7.3)."""
        peak = FabricSimulator().run(
            saturated_permutation(256, shift=2), quanta=1500, warmup_quanta=100
        )
        avg = FabricSimulator().run(
            _source("uniform", 256, 0, exclude_self=True),
            quanta=4000,
            warmup_quanta=300,
        )
        ratio = avg.gbps / peak.gbps
        assert 0.63 <= ratio <= 0.75

    def test_hotspot_serializes(self):
        stats = FabricSimulator().run(
            _source("hotspot", 128, 0, hot_port=0, p_hot=1.0),
            quanta=500, warmup_quanta=50,
        )
        # One grant per quantum: aggregate rate ~= single-port rate.
        assert stats.grant_histogram[1] == stats.quanta
        assert stats.words_per_cycle < 0.8


class TestFragmentation:
    def test_large_packets_fragment(self):
        sim = FabricSimulator(max_quantum_words=64)
        stats = sim.run(saturated_permutation(256, shift=1), quanta=400, warmup_quanta=40)
        # 256-word packets over 64-word quanta: 4 quanta per packet.
        assert stats.delivered_words == pytest.approx(
            stats.delivered_packets * 256, abs=3 * 256
        )
        assert stats.quanta >= stats.delivered_packets  # > 1 quantum/packet

    def test_fragmentation_costs_throughput(self):
        full = FabricSimulator(max_quantum_words=256).run(
            saturated_permutation(256, 1), quanta=400, warmup_quanta=40
        )
        frag = FabricSimulator(max_quantum_words=32).run(
            saturated_permutation(256, 1), quanta=1200, warmup_quanta=40
        )
        assert frag.gbps < full.gbps

    def test_invalid_quantum(self):
        with pytest.raises(ValueError):
            FabricSimulator(max_quantum_words=0)


class TestStopping:
    def test_needs_condition(self):
        with pytest.raises(TypeError):
            FabricSimulator().run(saturated_permutation(16))

    def test_quanta_is_the_only_stopping_rule(self):
        # A packet-count rule spins for ever on a source that never
        # delivers (``lambda p: None``); run() no longer takes one.
        with pytest.raises(TypeError):
            FabricSimulator().run(saturated_permutation(16), min_packets=50)

    def test_idle_source(self):
        stats = FabricSimulator().run(lambda p: None, quanta=10)
        assert stats.idle_quanta == 10
        assert stats.delivered_packets == 0
        assert stats.gbps == 0.0

    def test_bad_packet_words(self):
        sim = FabricSimulator()
        with pytest.raises(ValueError):
            sim.run(lambda p: (0, 0), quanta=1)


class TestAccounting:
    def test_per_port_sums(self):
        sim = FabricSimulator()
        stats = sim.run(
            _source("uniform", 64, 1, exclude_self=False),
            quanta=500, warmup_quanta=0,
        )
        assert sum(stats.per_port_words) == stats.delivered_words
        assert sum(stats.per_port_packets) == stats.delivered_packets

    def test_histogram_totals_quanta(self):
        stats = FabricSimulator().run(
            _source("uniform", 64, 1, exclude_self=False), quanta=300
        )
        assert sum(stats.grant_histogram) + stats.idle_quanta == stats.quanta


@given(
    words=st.integers(1, 300),
    shift=st.integers(1, 3),
    quanta=st.integers(10, 120),
)
@settings(max_examples=40, deadline=None)
def test_conservation_property(words, shift, quanta):
    """Property: delivered words == packets x packet size (no loss, no
    duplication) for any size/pattern/duration."""
    sim = FabricSimulator()
    stats = sim.run(saturated_permutation(words, shift), quanta=quanta)
    assert stats.delivered_words <= stats.delivered_packets * words + 4 * words
    # every completed packet moved exactly `words` words
    if stats.delivered_packets:
        # in-flight fragments may make words slightly exceed packets*words
        assert stats.delivered_words >= stats.delivered_packets * min(
            words, sim.max_quantum_words
        )
