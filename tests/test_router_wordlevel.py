"""Word-level router: real words over the real static network.

These are the heaviest tests in the suite (every word is a kernel
event); windows are kept short.  What they buy: end-to-end payload
integrity through the switch fabric, cross-validation of the phase
model's cycle accounting, and the distributed-allocation property (all
four Crossbar Processors independently compute the same schedule -- if
they did not, words would misroute and the payload checks would fail).
"""

import pytest

from repro.core.phases import quantum_cycles
from repro.config import CostModel, SimConfig
from repro.raw.layout import CROSSBAR_RING, INGRESS_TILES
from repro.router.wordlevel import WordLevelRouter
from repro.sim.trace import Trace
from repro.traffic.build import wordlevel_source
from repro.traffic.spec import spec_from_legacy

costs = CostModel.default()


def _permutation(packet_bytes):
    return wordlevel_source(spec_from_legacy("permutation", packet_bytes),
                            SimConfig())


def _uniform(packet_bytes, seed):
    return wordlevel_source(spec_from_legacy("uniform", packet_bytes),
                            SimConfig(seed=seed))


@pytest.fixture(scope="module")
def peak_64():
    router = WordLevelRouter(_permutation(64), verify_payloads=True)
    result = router.run(until_cycles=20_000, warmup_cycles=4_000)
    return router, result


@pytest.fixture(scope="module")
def peak_1024():
    router = WordLevelRouter(_permutation(1024), verify_payloads=True)
    result = router.run(until_cycles=50_000, warmup_cycles=10_000)
    return router, result


class TestDelivery:
    def test_packets_flow(self, peak_64):
        _, result = peak_64
        assert result.delivered_packets > 100

    def test_payloads_intact(self, peak_64, peak_1024):
        for router, _ in (peak_64, peak_1024):
            assert router.payload_errors == 0

    def test_permutation_balances_ports(self, peak_64):
        _, result = peak_64
        counts = result.per_port_packets
        assert max(counts) - min(counts) <= 2

    def test_words_account_for_packets(self, peak_1024):
        _, result = peak_1024
        assert result.delivered_words == result.delivered_packets * 256


class TestCycleCrossValidation:
    """The word-level control overhead per quantum lands within ~60% of
    the phase model's calibrated 48 cycles (the generated programs
    serialize ingress prep the thesis's hand assembly overlaps -- see
    EXPERIMENTS.md), and throughput tracks the paper's shape."""

    def test_1024B_near_paper(self, peak_1024):
        _, result = peak_1024
        assert result.gbps == pytest.approx(26.9, rel=0.15)
        assert result.mpps == pytest.approx(3.3, rel=0.15)

    def test_64B_within_band(self, peak_64):
        _, result = peak_64
        assert result.gbps == pytest.approx(7.3, rel=0.30)

    def test_size_ordering_preserved(self, peak_64, peak_1024):
        assert peak_1024[1].gbps > 2.5 * peak_64[1].gbps

    def test_implied_control_overhead(self, peak_1024):
        _, result = peak_1024
        cycles_per_packet = result.cycles * 4 / result.delivered_packets
        control = cycles_per_packet - 256 - 2  # body + expansion
        assert costs.quantum_ctl_overhead * 0.8 <= control <= costs.quantum_ctl_overhead * 1.8


class TestUniformTraffic:
    def test_uniform_runs_and_delivers(self):
        router = WordLevelRouter(_uniform(256, 11), verify_payloads=True)
        result = router.run(until_cycles=25_000, warmup_cycles=5_000)
        assert result.delivered_packets > 50
        assert router.payload_errors == 0

    def test_uniform_below_permutation(self):
        uni = WordLevelRouter(_uniform(256, 11)).run(25_000, 5_000)
        perm = WordLevelRouter(_permutation(256)).run(25_000, 5_000)
        assert uni.gbps < perm.gbps


class TestTracing:
    def test_fig7_3_trace_shape(self):
        trace = Trace(4_000, 8_000)
        router = WordLevelRouter(_uniform(64, 7), trace=trace)
        result = router.run(until_cycles=8_000)
        summaries = result.utilization(4_000, 8_000)
        # Ingress tiles blocked on the crossbar (Fig 7-3's gray).
        ing = [summaries[f"t{t}"] for t in INGRESS_TILES if f"t{t}" in summaries]
        assert ing and all(s.blocked_frac > 0.4 for s in ing)
        # Crossbar tile processors alternate compute and blocking.
        for t in CROSSBAR_RING:
            key = f"t{t}"
            if key in summaries:
                assert summaries[key].busy_frac > 0.0

    def test_untraced_run_raises_on_utilization(self):
        router = WordLevelRouter(_permutation(64))
        result = router.run(until_cycles=2_000)
        with pytest.raises(RuntimeError):
            result.utilization()


class TestRestrictions:
    def test_multi_quantum_packet_rejected(self):
        def jumbo(port):
            from repro.ip.packet import IPv4Packet

            return (port + 1) % 4, IPv4Packet.synthesize(1, 2, 2048)

        router = WordLevelRouter(jumbo)
        with pytest.raises(ValueError):
            router.run(until_cycles=5_000)
