"""Command-line interface."""

import json
import pathlib

import pytest

from repro.cli import REGISTRY, main

TRACE = str(
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "traces" / "imix_1k.csv"
)

#: Fault-plan files the bad-input cases name as ``{tmp}/<name>``; each
#: test writes them under its own tmp_path.
BAD_PLANS = {
    "malformed.json": '{"events": [',
    "no_cycle.json": '{"events": [{"kind": "token_loss"}]}',
}


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_registry_covers_paper_artifacts(self):
        for required in ("fig7_1_peak", "fig7_1_avg", "fig7_3", "fig5_1", "table6_1"):
            assert required in REGISTRY


class TestRun:
    def test_run_fig5_1(self, capsys):
        assert main(["run", "fig5_1"]) == 0
        out = capsys.readouterr().out
        assert "cw" in out and "measured" in out

    def test_run_quick_quantum_ablation(self, capsys):
        assert main(["run", "abl_quantum", "--quick"]) == 0
        assert "quantum_256w" in capsys.readouterr().out

    def test_run_multiple(self, capsys):
        assert main(["run", "fig5_1", "table6_1"]) == 0
        out = capsys.readouterr().out
        assert "fig5_1" in out and "table6_1" in out

    def test_unknown_name(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_requires_subcommand(self, capsys):
        assert main([]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestTrace:
    def test_trace_quick(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "fig7_1_peak", "--quick",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "stage latency" in out
        assert "kernel self-profile" in out
        assert out_path.exists()

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "unknown trace experiment" in capsys.readouterr().err

    def test_trace_leaves_telemetry_disabled(self):
        from repro.telemetry import runtime

        assert main(["trace", "fig7_1_peak", "--quick"]) == 0
        assert runtime.get() is None


class TestBadInput:
    """Bad outside input ends in one line naming it and exit status 2,
    before any run starts."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(["replay", "/nonexistent.csv"], "/nonexistent.csv",
                         id="replay-missing-trace"),
            pytest.param(["replay", TRACE, "--quanta", "0"], "--quanta",
                         id="replay-quanta-0"),
            pytest.param(["sweep", "--grid", "traffic=/nonexistent.csv"],
                         "/nonexistent.csv", id="sweep-grid-missing-trace"),
            pytest.param(["sweep", "--grid", "ports=4", "--traffic",
                          "/nonexistent.csv"], "/nonexistent.csv",
                         id="sweep-traffic-missing-trace"),
            pytest.param(["sweep", "--grid", "ports=4", "--quanta", "0"],
                         "--quanta", id="sweep-quanta-0"),
            pytest.param(["sweep", "--grid", "ports=4", "--worlds", "0"],
                         "--worlds", id="sweep-worlds-0"),
            pytest.param(["sweep", "--grid", "ports=4", "--workers", "0"],
                         "--workers", id="sweep-workers-0"),
            pytest.param(["sweep", "--grid", "ports=4", "--workers", "-2"],
                         "--workers", id="sweep-workers-negative"),
            pytest.param(["sweep", "--fidelity", "space", "--grid", "ports=16",
                          "partitions=1,2", "--workers", "2", "--quanta", "100"],
                         "partitions=2", id="sweep-workers-space-partitions"),
            pytest.param(["trace", "scaling", "--engine", "space",
                          "--partitions", "64", "--quick"],
                         "64 partitions over 12 chips",
                         id="trace-space-partitions-64"),
            pytest.param(["top", "scaling", "--engine", "space",
                          "--partitions", "64", "--quick"],
                         "64 partitions over 12 chips",
                         id="top-space-partitions-64"),
            pytest.param(["sweep", "--grid", "ports=abc"], "ports=abc",
                         id="sweep-grid-ports-not-a-number"),
            pytest.param(["sweep", "--grid", "ports=4.0"], "ports=4.0",
                         id="sweep-grid-ports-not-an-integer"),
            pytest.param(["sweep", "--grid", "ports=4", "ports=8"],
                         "'ports' given twice", id="sweep-grid-key-twice"),
            pytest.param(["sweep", "--grid", "ports=4", "--grid", "ports=8"],
                         "'ports' given twice", id="sweep-grid-flag-twice-key-twice"),
            pytest.param(["sweep", "--grid", "faults=/nonexistent.json"],
                         "/nonexistent.json", id="sweep-grid-missing-plan"),
            pytest.param(["sweep", "--grid", "faults={tmp}/no_cycle.json"],
                         "no_cycle.json", id="sweep-grid-plan-event-without-cycle"),
            pytest.param(["sweep", "--grid", "ports=4", "--fault-plan",
                          "/nonexistent.json"], "/nonexistent.json",
                         id="sweep-fault-plan-missing"),
            pytest.param(["bench", "--quick", "--engine", "nosuch"], "'nosuch'",
                         id="bench-unknown-engine"),
            pytest.param(["chaos", "--quick", "--plan", "/nonexistent.json"],
                         "/nonexistent.json", id="chaos-plan-missing"),
            pytest.param(["chaos", "--quick", "--plan", "{tmp}/malformed.json"],
                         "malformed.json", id="chaos-plan-malformed-json"),
            pytest.param(["chaos", "--quick", "--plan", "{tmp}/no_cycle.json"],
                         "no_cycle.json", id="chaos-plan-event-without-cycle"),
            pytest.param(["sweep", "--grid", "traffic={tmp}/malformed.json"],
                         "bad --grid: bad traffic spec '{tmp}/malformed.json'",
                         id="sweep-grid-malformed-traffic-spec"),
            pytest.param(["sweep", "--grid", "traffic={tmp}/no_cycle.json"],
                         "bad traffic spec '{tmp}/no_cycle.json'",
                         id="sweep-grid-traffic-spec-unknown-field"),
            pytest.param(["sweep", "--grid", "traffic=/nonexistent.json"],
                         "cannot read traffic spec '/nonexistent.json'",
                         id="sweep-grid-missing-traffic-spec"),
            pytest.param(["sweep", "--grid", "ports=4", "--traffic",
                          "{tmp}/malformed.json"],
                         "--traffic: bad traffic spec '{tmp}/malformed.json'",
                         id="sweep-traffic-malformed-spec"),
            pytest.param(["sweep", "--grid", "ports=4", "--traffic",
                          "/nonexistent.json"],
                         "--traffic: cannot read traffic spec '/nonexistent.json'",
                         id="sweep-traffic-missing-spec"),
        ],
    )
    def test_exits_2_naming_the_input(self, argv, named, capsys, tmp_path):
        for name, text in BAD_PLANS.items():
            (tmp_path / name).write_text(text)
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        named = named.replace("{tmp}", str(tmp_path))
        out = tmp_path / "out.json"
        if argv[0] in ("sweep", "bench", "chaos"):
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(["serve", "127.0.0.1:1"], "'serve'",
                         id="serve-removed"),
            pytest.param(["sweep", "--grid", "ports=16", "--transport",
                          "pipe"], "--transport", id="sweep-transport-removed"),
        ],
    )
    def test_removed_options_are_usage_errors(self, argv, named, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert len(err.strip().splitlines()) == 1


class TestSweepGrid:
    def test_repeated_grid_flags_accumulate(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--grid", "ports=8", "--grid", "quantum=128,256",
                "--quanta", "50", "--out", str(out)]
        assert main(argv) == 0
        table = json.loads(out.read_text())
        assert table["sweep"]["grid"] == {"ports": [8], "quantum_words": [128, 256]}
        cells = [row["cell"] for row in table["rows"]]
        assert cells == [
            {"ports": 8, "quantum_words": 128},
            {"ports": 8, "quantum_words": 256},
        ]
