"""Experiment harness: every table/figure regenerates with the paper's shape.

These run the same code the benchmarks run (smaller budgets) and assert
the *reproduction criteria*: who wins, by roughly what factor, where the
crossovers fall.  Absolute-value closeness is asserted where the phase
model is calibrated (Fig 7-1) and banded elsewhere.
"""

import pytest

from repro.experiments import (
    ablations,
    claims_ch2,
    compute_ext,
    fairness_qos,
    fig5_1,
    fig7_1,
    load_latency,
    lookup_ext,
    multicast_ext,
    multichip,
    resilience,
    scaling,
    table6_1,
)
from repro.experiments import paperdata


class TestFig71Peak:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7_1.run_peak(quanta=800, click_packets=800)

    def test_sizes_within_16pct(self, result):
        for size, ref in paperdata.PEAK_GBPS.items():
            assert result.measured(f"{size}B") == pytest.approx(ref, rel=0.16)

    def test_headline_1024(self, result):
        assert result.measured("1024B") == pytest.approx(26.9, rel=0.02)
        assert result.measured("peak_mpps_1024B") == pytest.approx(3.3, rel=0.03)

    def test_click_bar(self, result):
        assert result.measured("click_64B") == pytest.approx(0.23, rel=0.12)

    def test_two_orders_over_click(self, result):
        assert result.measured("1024B") / result.measured("click_64B") > 100

    def test_monotone_in_size(self, result):
        series = [result.measured(f"{s}B") for s in sorted(paperdata.PEAK_GBPS)]
        assert series == sorted(series)

    def test_router_engine_agrees(self):
        fast = fig7_1.run_peak(sizes=(1024,), quanta=400, click_packets=200)
        slow = fig7_1.run_peak(
            sizes=(1024,), quanta=400, click_packets=200, engine="router"
        )
        assert slow.measured("1024B") == pytest.approx(
            fast.measured("1024B"), rel=0.02
        )


class TestFig71Average:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7_1.run_average(quanta=2500, click_packets=400)

    def test_sizes_within_16pct(self, result):
        for size, ref in paperdata.AVG_GBPS.items():
            assert result.measured(f"{size}B") == pytest.approx(ref, rel=0.16)

    def test_avg_to_peak_near_69pct(self, result):
        assert result.measured("avg_to_peak_1024B") == pytest.approx(0.69, abs=0.04)


class TestTable61:
    @pytest.fixture(scope="class")
    def result(self):
        return table6_1.run()

    def test_global_space_exact(self, result):
        assert result.measured("global_space") == 2500
        assert result.measured("instr_per_naive_config") == pytest.approx(3.28, abs=0.01)

    def test_minimization_order_of_paper(self, result):
        assert 20 <= result.measured("minimized_configs") <= 48
        assert result.measured("reduction_factor") > 50

    def test_fits_imem(self, result):
        assert result.measured("fits_switch_imem") is True


class TestFig51:
    def test_exact_reproduction(self):
        result = fig5_1.run()
        for row in result.rows:
            assert row["measured"] == row["paper"], row


class TestAblations:
    def test_second_network_no_gain(self):
        result = ablations.run_second_network(quanta=800)
        assert result.measured("permutation_speedup") == pytest.approx(1.0, abs=0.01)
        assert result.measured("uniform_speedup") == pytest.approx(1.0, abs=0.06)

    def test_quantum_size_monotone(self):
        result = ablations.run_quantum_size(quanta=800)
        series = [result.measured(f"quantum_{q}w") for q in (16, 32, 64, 128, 256)]
        assert series == sorted(series)
        assert result.measured("full_over_smallest") > 2.5

    def test_pipelining_helps_small_packets(self):
        result = ablations.run_pipelining(quanta=800)
        assert result.measured("speedup_from_pipelining") > 1.4


class TestClaimsCh2:
    def test_hol_vs_voq(self):
        result = claims_ch2.run_hol_voq(ports=(16,), slots=6000, warmup=600)
        assert result.measured("fifo_N16") == pytest.approx(0.586, abs=0.05)
        assert result.measured("voq_islip_N16") > 0.95
        assert result.measured("output_queued_N16") > 0.97

    def test_cells_vs_packets(self):
        result = claims_ch2.run_cells_vs_packets(slots=8000)
        assert result.measured("cell_mode_util") > 0.85
        assert result.measured("variable_length_util") == pytest.approx(0.60, abs=0.08)
        assert result.measured("cell_over_variable") > 1.3

    def test_islip_iterations_reduce_delay(self):
        result = claims_ch2.run_islip_iterations(slots=5000, warmup=500)
        assert result.measured("islip_4it_delay") < result.measured("islip_1it_delay")


class TestScaling:
    def test_neighbor_scales_antipodal_capped(self):
        result = scaling.run(port_counts=(4, 8), quanta=800)
        assert result.measured("neighbor_gbps_N8") == pytest.approx(
            2 * result.measured("neighbor_gbps_N4"), rel=0.05
        )
        assert result.measured("antipodal_gbps_N8") == pytest.approx(
            result.measured("antipodal_gbps_N4"), rel=0.1
        )


class TestFairnessQos:
    def test_starvation_bound(self):
        result = fairness_qos.run_fairness(quanta=1500)
        assert result.measured("worst_starvation_gap") == 3
        assert result.measured("jains_index") == pytest.approx(1.0, abs=0.01)

    def test_weighted_shares(self):
        result = fairness_qos.run_qos(quanta=2800)
        assert result.measured("weighted_share_port0") == pytest.approx(4 / 7, abs=0.02)
        assert result.measured("weighted_min_share") == pytest.approx(1 / 7, abs=0.02)


class TestMulticast:
    def test_fabric_beats_ingress_replication(self):
        result = multicast_ext.run(fanouts=(3,), quanta=1200)
        assert result.measured("fabric_gain_F3") > 1.2


class TestLookup:
    def test_compressed_faster_and_bounded(self):
        result = lookup_ext.run(table_sizes=(5000,), lookups=800)
        assert result.measured("compressed_mlookups_per_s_5000") > result.measured(
            "trie_mlookups_per_s_5000"
        )
        assert result.measured("compressed_max_visits_le3_5000") is True


class TestMultichip:
    def test_clos_recovers_antipodal_bandwidth(self):
        result = multichip.run(quanta=600)
        assert result.measured("antipodal_clos_gain") > 3.0
        # Neighbor traffic: the big ring is already fine.
        assert result.measured("neighbor_single_ring_gbps") > 90
        antipodal = result.measured("antipodal_clos_gbps")
        assert antipodal == 107.08496732026144
        assert result.measured("neighbor_clos_gbps") == 107.43606557377049
        assert result.measured("space_clos_antipodal_gbps") == antipodal


class TestLoadLatency:
    def test_knee_at_fabric_capacity(self):
        result = load_latency.run(loads=(0.3, 0.95), packets_per_port=150)
        assert result.measured("mean_us_at_0.3") < result.measured("mean_us_at_0.95")
        assert result.measured("top_load_goodput_over_capacity") > 0.85


class TestCompute:
    def test_costs_and_roundtrip(self):
        result = compute_ext.run(quanta=500)
        assert result.measured("byteswap_relative") == pytest.approx(1.0, abs=0.01)
        assert result.measured("xor_cipher_relative") == pytest.approx(0.5, abs=0.02)
        assert result.measured("cipher_roundtrip_ok") is True


class TestResilience:
    def test_quick_table_is_byte_identical_across_runs(self, tmp_path):
        """The committed table holds simulated numbers only, so a rerun
        (the chaos CI step) rewrites it byte for byte."""
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            resilience.run_quick(out=str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()
