"""Non-blocking lookup engine (section 8.2's multithreading equivalence)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ip.nblookup import LookupEngine


class TestValidation:
    def test_parameters_checked(self):
        with pytest.raises(ValueError):
            LookupEngine(visits_per_lookup=0)
        with pytest.raises(ValueError):
            LookupEngine(mem_latency_cycles=0)
        with pytest.raises(ValueError):
            LookupEngine(max_outstanding=0)
        with pytest.raises(ValueError):
            LookupEngine().simulate(0)


class TestBlockingBaseline:
    def test_serial_cost(self):
        eng = LookupEngine(visits_per_lookup=3, mem_latency_cycles=54, issue_cycles=4)
        res = eng.simulate(500)
        assert res.cycles_per_lookup == pytest.approx(3 * (54 + 4), rel=0.01)

    def test_matches_bound(self):
        eng = LookupEngine(max_outstanding=1)
        assert eng.simulate(500).cycles_per_lookup == pytest.approx(
            eng.bound_cycles_per_lookup(), rel=0.01
        )


class TestNonBlocking:
    @pytest.mark.parametrize("window", [2, 4, 8])
    def test_linear_speedup_before_issue_bound(self, window):
        eng = LookupEngine(max_outstanding=window)
        base = LookupEngine(max_outstanding=1).simulate(1000).cycles_per_lookup
        got = eng.simulate(1000).cycles_per_lookup
        assert base / got == pytest.approx(window, rel=0.03)

    def test_issue_bound_caps_speedup(self):
        eng = LookupEngine(
            visits_per_lookup=3, mem_latency_cycles=54, issue_cycles=4,
            max_outstanding=64,
        )
        res = eng.simulate(2000)
        # Cannot beat visits x issue cycles per lookup.
        assert res.cycles_per_lookup >= 3 * 4 * 0.99
        assert eng.speedup_over_blocking() == pytest.approx(58 / 4, rel=0.01)

    def test_beats_ixp1200_rate_with_modest_window(self):
        """The section 8.2 punchline: 8 outstanding reads push one tile
        past the IXP1200's 3.5 Mpps forwarding rate."""
        from repro.config import CostModel

        res = LookupEngine(max_outstanding=8).simulate(2000)
        mlps = CostModel.default().clock_hz / res.cycles_per_lookup / 1e6
        assert mlps > 3.5


@given(
    visits=st.integers(1, 6),
    latency=st.integers(5, 100),
    issue=st.integers(1, 8),
    window=st.integers(1, 32),
)
@settings(max_examples=60, deadline=None)
def test_simulation_matches_closed_form(visits, latency, issue, window):
    """Property: the event simulation converges to the analytic bound."""
    eng = LookupEngine(visits, latency, issue, window)
    res = eng.simulate(600)
    assert res.cycles_per_lookup == pytest.approx(
        eng.bound_cycles_per_lookup(), rel=0.06
    )
