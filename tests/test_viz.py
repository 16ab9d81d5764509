"""Text renderers: timelines and tables."""

import pytest

from repro.metrics.utilization import summarize_trace
from repro.sim.trace import Trace
from repro.viz.tables import format_comparison, format_table
from repro.viz.timeline import render_timeline


def _trace():
    t = Trace()
    t.record("t4", "busy", 0, 40)
    t.record("t4", "rx", 40, 100)
    t.record("t5", "busy", 0, 100)
    return t


class TestTimeline:
    def test_renders_rows_and_glyphs(self):
        out = render_timeline(_trace(), ["t4", "t5"], 0, 100, width=20)
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("t4")
        body4 = lines[1][3:]
        assert "#" in body4 and "." in body4
        assert set(lines[2][3:].strip()) == {"#"}

    def test_busy_blocked_proportions(self):
        out = render_timeline(_trace(), ["t4"], 0, 100, width=10)
        row = out.splitlines()[1].split(None, 1)[1]
        assert row.count("#") == 4
        assert row.count(".") == 6

    def test_labels_substituted(self):
        out = render_timeline(_trace(), ["t4"], 0, 100, labels={"t4": "ingress0"})
        assert "ingress0" in out

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            render_timeline(_trace(), ["t4"], 50, 50)

    def test_width_clamped_to_span(self):
        out = render_timeline(_trace(), ["t4"], 0, 5, width=100)
        assert len(out.splitlines()[1].split(None, 1)[1]) <= 5

    def test_fault_states_get_distinct_glyphs(self):
        from repro.sim.kernel import DOWN, STALLED

        t = Trace()
        t.record("input:1", DOWN, 0, 50)
        t.record("input:1", "busy", 50, 100)
        t.record("input:2", STALLED, 0, 100)
        out = render_timeline(t, ["input:1", "input:2"], 0, 100, width=10)
        lines = out.splitlines()
        assert "x=down" in lines[0] and "~=stalled" in lines[0]
        row1 = lines[1].split(None, 1)[1]
        assert row1.count("x") == 5 and row1.count("#") == 5
        assert set(lines[2].split(None, 1)[1]) == {"~"}


class TestFaultUtilization:
    def test_faulted_cycles_counted_separately(self):
        from repro.sim.kernel import DOWN, STALLED

        t = Trace()
        t.record("k", "busy", 0, 30)
        t.record("k", DOWN, 30, 50)
        t.record("k", STALLED, 50, 60)
        s = summarize_trace(t, 0, 100)["k"]
        assert s.busy == 30
        assert s.faulted == 30
        assert s.blocked == 0
        assert s.idle == 40


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.500" in out
        assert all(len(l) == len(lines[1]) for l in lines[3:])

    def test_format_comparison_ratio(self):
        rows = [
            {"label": "x", "measured": 2.0, "paper": 4.0},
            {"label": "y", "measured": 3.0, "paper": None},
        ]
        out = format_comparison(rows)
        assert "0.50" in out
        line_y = [l for l in out.splitlines() if l.startswith("y")][0]
        assert "- " in line_y
