"""Fairness analysis and the section 5.4 starvation bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.allocator import Allocator
from repro.core.fabricsim import FabricSimulator
from repro.core.fairness import analyze_service, jains_index
from repro.core.ring import RingGeometry
from repro.core.token import RotatingToken, WeightedToken
from repro.traffic.build import fabric_source
from repro.traffic.spec import spec_from_legacy


class TestJainsIndex:
    def test_perfectly_even(self):
        assert jains_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_one_hog(self):
        assert jains_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jains_index([]) == 1.0
        assert jains_index([0, 0]) == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.integers(0, 100, size=6)
            j = jains_index(x)
            assert 1 / 6 - 1e-9 <= j <= 1 + 1e-9 or not np.any(x)


class TestAnalyzeService:
    def _history(self, requests_list, token_start=0):
        ring = RingGeometry(4)
        allocator = Allocator(ring)
        token = RotatingToken(4, start=token_start)
        history = []
        for requests in requests_list:
            alloc = allocator.allocate(requests, token.master)
            history.append((tuple(requests), alloc))
            token.advance()
        return history

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            analyze_service([])

    def test_counts(self):
        history = self._history([(0, 0, 0, 0)] * 8)
        report = analyze_service(history)
        assert report.offered == [8, 8, 8, 8]
        assert sum(report.served) == 8  # one grant per hotspot quantum
        assert report.served == [2, 2, 2, 2]  # token round robin
        assert report.jains == pytest.approx(1.0)

    def test_starvation_bound_hotspot(self):
        history = self._history([(0, 0, 0, 0)] * 40)
        report = analyze_service(history)
        assert report.worst_starvation_gap() == 3  # N-1

    def test_gap_resets_when_idle(self):
        # A port with no traffic accumulates no starvation gap.
        history = self._history([(0, None, 0, 0)] * 12)
        report = analyze_service(history)
        assert report.offered[1] == 0
        assert report.max_gap[1] == 0

    def test_words_weighting(self):
        history = self._history([(0, 0, 0, 0)] * 4)
        words = [{src: 100} for q, (reqs, alloc) in enumerate(history)
                 for src in [next(iter(alloc.grants))]]
        report = analyze_service(history, words_per_grant=words)
        assert sum(report.served_words) == 400


class TestFabricFairness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_traffic_is_fair(self, seed):
        sim = FabricSimulator(keep_history=True)
        source = fabric_source(spec_from_legacy("uniform", 256),
                               SimConfig(seed=seed))
        sim.run(source, quanta=2000)
        report = analyze_service(sim.history)
        assert report.jains > 0.99
        assert report.worst_starvation_gap() <= 3

    def test_weighted_token_bounds_stretch(self):
        sim = FabricSimulator(token=WeightedToken([4, 1, 1, 1]), keep_history=True)
        sim.run(lambda port: (0, 64), quanta=2000)
        report = analyze_service(sim.history)
        # Worst wait: the full weight cycle minus your own slot(s).
        assert report.worst_starvation_gap() <= 6
        # Port 0 gets its 4/7 share.
        assert report.served[0] / sum(report.served) == pytest.approx(4 / 7, rel=0.05)


@given(seed=st.integers(0, 1000), quanta=st.integers(20, 200))
@settings(max_examples=25, deadline=None)
def test_starvation_never_exceeds_n_minus_1(seed, quanta):
    """Property (section 5.4): under ANY traffic, a backlogged input is
    served within N-1 quanta of its last service opportunity."""
    rng = np.random.default_rng(seed)
    sim = FabricSimulator(keep_history=True)

    def adversary(port):
        if rng.random() < 0.15:
            return None
        return int(rng.integers(0, 4)), int(rng.integers(1, 64))

    sim.run(adversary, quanta=quanta)
    if sim.history:
        report = analyze_service(sim.history)
        assert report.worst_starvation_gap() <= 3
