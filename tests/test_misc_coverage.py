"""Odds and ends: helpers and reference data not covered elsewhere."""

import pytest

from repro.experiments import paperdata
from repro.config import CostModel

costs = CostModel.default()


class TestCostHelpers:
    def test_bytes_to_words_rounds_up(self):
        assert costs.bytes_to_words(64) == 16
        assert costs.bytes_to_words(65) == 17
        assert costs.bytes_to_words(1) == 1

    def test_gbps_mpps(self):
        # 8,000 bits in 1,000 cycles at 250 MHz = 2 Gbps.
        assert costs.gbps(8000, 1000) == pytest.approx(2.0)
        assert costs.mpps(1000, 1000) == pytest.approx(250.0)

    def test_positive_cycles_required(self):
        with pytest.raises(ValueError):
            costs.gbps(1, 0)
        with pytest.raises(ValueError):
            costs.mpps(1, -5)


class TestPaperData:
    def test_avg_below_peak_everywhere(self):
        for size, peak in paperdata.PEAK_GBPS.items():
            assert paperdata.AVG_GBPS[size] < peak

    def test_avg_to_peak_consistent_with_series(self):
        ratio = paperdata.AVG_GBPS[1024] / paperdata.PEAK_GBPS[1024]
        assert ratio == pytest.approx(paperdata.AVG_TO_PEAK, abs=0.01)

    def test_config_space_arithmetic(self):
        assert paperdata.CONFIG_SPACE == 5 ** 4 * 4
        assert paperdata.INSTR_PER_NAIVE_CONFIG == pytest.approx(3.28, abs=0.01)

    def test_raw_chip_parameters(self):
        assert paperdata.RAW_CLOCK_MHZ == 250
        assert costs.clock_hz == paperdata.RAW_CLOCK_MHZ * 1e6

    def test_reduction_consistency(self):
        assert paperdata.CONFIG_SPACE / paperdata.MINIMIZED_CONFIGS == pytest.approx(
            paperdata.REDUCTION_FACTOR, rel=0.01
        )


class TestExperimentResultPlumbing:
    def test_row_and_ratio(self):
        from repro.experiments.common import ExperimentResult

        r = ExperimentResult("x", "desc")
        r.add("a", 2.0, 4.0)
        r.add("b", 1.0)
        assert r.ratio("a") == 0.5
        assert r.ratio("b") is None
        with pytest.raises(KeyError):
            r.row("missing")

    def test_extra_table(self):
        from repro.experiments.common import ExperimentResult

        r = ExperimentResult("x", "desc")
        r.add("a", 1.0, kpps=5)
        text = r.extra_table(["kpps"])
        assert "kpps" in text and "5" in text
