"""Phase timing model and its calibration against Fig 7-1."""

import pytest

from repro.core.phases import (
    DEFAULT_TIMING,
    PhaseTiming,
    idle_quantum_cycles,
    peak_gbps,
    quantum_cycles,
)
from repro.experiments import paperdata
from repro.config import CostModel

costs = CostModel.default()


class TestPhaseTiming:
    def test_default_sums_to_calibrated_overhead(self):
        assert DEFAULT_TIMING.control_total == costs.quantum_ctl_overhead

    def test_custom_timing(self):
        t = PhaseTiming(headers_request=1, headers_send=2, headers_exchange=3,
                        choose_config=4, confirm=5)
        assert t.control_total == 15


class TestQuantumCycles:
    def test_formula(self):
        assert quantum_cycles(256, 2) == 256 + 2 + 48

    def test_zero_body(self):
        assert quantum_cycles(0, 0) == 48
        assert idle_quantum_cycles() == 48

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantum_cycles(-1, 0)
        with pytest.raises(ValueError):
            quantum_cycles(0, -1)

    def test_unpipelined_adds_header_and_lookup(self):
        delta = quantum_cycles(64, 1, pipelined=False) - quantum_cycles(64, 1)
        assert delta == costs.ingress_header_cycles + costs.lookup_cycles

    def test_monotone_in_words(self):
        cycles = [quantum_cycles(w, 0) for w in (16, 32, 64, 128, 256)]
        assert cycles == sorted(cycles)


class TestCalibration:
    """The closed-form peak model must track the published Fig 7-1 bars."""

    @pytest.mark.parametrize("size", sorted(paperdata.PEAK_GBPS))
    def test_within_16_percent_of_paper(self, size):
        measured = peak_gbps(size)
        paper = paperdata.PEAK_GBPS[size]
        assert measured == pytest.approx(paper, rel=0.16), (measured, paper)

    def test_1024B_matches_headline(self):
        """The abstract's numbers: 26.9 Gbps and 3.3 Mpps."""
        gbps = peak_gbps(1024)
        assert gbps == pytest.approx(26.9, rel=0.02)
        mpps = gbps * 1e9 / (1024 * 8) / 1e6
        assert mpps == pytest.approx(3.3, rel=0.02)

    def test_throughput_rises_with_packet_size(self):
        series = [peak_gbps(s) for s in (64, 128, 256, 512, 1024)]
        assert series == sorted(series)

    def test_fragmentation_kicks_in_past_max_quantum(self):
        """A 2,048-byte packet needs two quanta: two control overheads."""
        one = peak_gbps(1024)
        two = peak_gbps(2048)
        # Per-bit cost identical up to the second control overhead.
        assert two < one * 1.01
        assert two == pytest.approx(one, rel=0.02)

    def test_two_orders_over_click(self):
        assert peak_gbps(1024) / paperdata.CLICK_GBPS > 100
