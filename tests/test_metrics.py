"""Measurement plumbing: meters, latency, utilization."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.latency import LatencyStats, percentile
from repro.metrics.throughput import ThroughputMeter
from repro.metrics.utilization import (
    BLOCKED_CODE,
    BUSY_CODE,
    IDLE_CODE,
    state_matrix,
    summarize_trace,
)
from repro.sim.trace import Trace


class TestThroughputMeter:
    def test_counts_in_window(self):
        m = ThroughputMeter(warmup_cycles=100)
        m.record(50, 64)  # before warmup: ignored
        m.record(150, 64)
        m.record(250, 64)
        assert m.packets == 2
        assert m.bits == 2 * 64 * 8
        assert m.total_seen == 3

    def test_stop_cycle(self):
        m = ThroughputMeter(warmup_cycles=0, stop_cycle=200)
        m.record(100, 64)
        m.record(250, 64)
        assert m.packets == 1

    def test_gbps_arithmetic(self):
        m = ThroughputMeter()
        m.record(10, 1250)  # 10,000 bits
        # 10,000 bits over 1,000 cycles at 250 MHz = 2.5 Gbps.
        assert m.gbps(end_cycle=1000) == pytest.approx(2.5)
        assert m.mpps(end_cycle=1000) == pytest.approx(0.25)

    def test_empty_meter(self):
        m = ThroughputMeter()
        assert m.gbps() == 0.0
        assert m.mpps() == 0.0

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMeter(warmup_cycles=-1)


class TestLatencyStats:
    def test_basic_percentiles(self):
        ls = LatencyStats()
        for d in range(1, 101):
            ls.record(0, d)
        assert ls.mean() == pytest.approx(50.5)
        assert ls.percentile(50) == pytest.approx(50.5)
        assert ls.percentile(99) == pytest.approx(99.01, rel=0.01)

    def test_summary_units(self):
        ls = LatencyStats()
        ls.record(0, 250)  # 250 cycles at 250 MHz = 1 us
        s = ls.summary()
        assert s["mean_us"] == pytest.approx(1.0)

    def test_negative_rejected(self):
        ls = LatencyStats()
        with pytest.raises(ValueError):
            ls.record(10, 5)

    def test_empty(self):
        ls = LatencyStats()
        assert ls.empty
        assert ls.summary() == {}
        assert np.isnan(ls.mean())

    def test_summary_percentiles_are_numpys(self):
        ls = LatencyStats()
        for d in (7, 3, 3, 19, 250, 4, 4, 4, 12):
            ls.record(100, 100 + d)
        s = ls.summary()
        assert s["p50_cycles"] == float(np.percentile(ls.cycles(), 50))
        assert s["p99_cycles"] == float(np.percentile(ls.cycles(), 99))


class TestPercentile:
    """:func:`percentile` is ``np.percentile`` (linear method) bit for
    bit, so swapping it in moved no reported number."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["int", "float"]),
        spread=st.sampled_from([1, 5, 1000, 10**9]),
        q=st.sampled_from([1, 50, 95, 99, 99.9]),
    )
    def test_matches_numpy_bit_for_bit(self, n, seed, kind, spread, q):
        rng = random.Random(seed)
        if kind == "int":
            samples = [rng.randrange(spread) for _ in range(n)]
        else:
            samples = [rng.uniform(-spread, spread) for _ in range(n)]
        got = percentile(samples, q)
        want = float(np.percentile(samples, q))
        assert type(got) is float
        assert got.hex() == want.hex()

    def test_edges(self):
        assert percentile([5], 99.9) == 5.0
        assert percentile([3, 1, 2], 0) == 1.0
        assert percentile([3, 1, 2], 100) == 3.0
        with pytest.raises(ValueError):
            percentile([1, 2], 101)


class TestUtilization:
    def _trace(self):
        t = Trace()
        t.record("a", "busy", 0, 60)
        t.record("a", "rx", 60, 100)
        t.record("b", "mem", 0, 30)
        return t

    def test_summary_fractions(self):
        s = summarize_trace(self._trace(), 0, 100)
        assert s["a"].busy_frac == pytest.approx(0.6)
        assert s["a"].blocked_frac == pytest.approx(0.4)
        assert s["a"].idle == 0
        assert s["b"].blocked_frac == pytest.approx(0.3)
        assert s["b"].idle == 70

    def test_windowed_summary(self):
        s = summarize_trace(self._trace(), 50, 100)
        assert s["a"].busy == 10
        assert s["a"].blocked == 40

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            summarize_trace(self._trace(), 10, 10)

    def test_state_matrix(self):
        mat = state_matrix(self._trace(), ["a", "b"], 0, 100)
        assert mat.shape == (2, 100)
        assert mat[0, 0] == BUSY_CODE
        assert mat[0, 99] == BLOCKED_CODE
        assert mat[1, 50] == IDLE_CODE
