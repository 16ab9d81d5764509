"""``repro bench --check``: the results-file validators reject stale
sections -- an empty per-backend table, a backend that is not a live
transport, a mode missing one of its suite's scenarios, a mode the suite
does not have, a kernel report filed under the wrong mode -- and accept
the committed results file.  Merging a kernel report touches only its
own budget mode's slots."""

import copy
import json
from pathlib import Path

import pytest

from repro import bench

RESULTS = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_results.json"
)


@pytest.fixture(scope="module")
def committed():
    return json.loads(RESULTS.read_text())


@pytest.fixture()
def results(committed):
    return copy.deepcopy(committed)


def _errors(data):
    return (
        bench.validate_results(data)
        + bench.validate_fabric_large(data)
        + bench.validate_manyworlds(data)
        + bench.validate_space(data)
    )


def _check_exit(tmp_path, data) -> int:
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(data))
    return bench.main(out=path, check_only=True)


def _kernel_report(mode, wall_s):
    """A minimal kernel-bench report: every engine took ``wall_s``."""
    return {
        "schema": bench.BENCH_SCHEMA,
        "mode": mode,
        "python": "3",
        "platform": "test",
        "runs": [
            {"engine": engine, "wall_s": wall_s, "sim_cycles": 1000,
             "cycles_per_sec": 1000 / wall_s}
            for engine in ("fabric", "router", "wordlevel")
        ],
    }


class TestValidators:
    def test_committed_results_pass(self, results, tmp_path):
        assert _errors(results) == []
        assert _check_exit(tmp_path, results) == 0

    def test_non_transport_backend_rejected(self, results, tmp_path):
        row = results["space_shard"]["quick"]["scenarios"][0]
        row["backends"]["shm"] = dict(row["backends"]["pipe"])
        errors = bench.validate_space(results)
        assert errors == [
            f"space_shard.quick.{row['scenario']}: backend 'shm' is not a "
            "transport ('pipe', 'socket')"
        ]
        assert _check_exit(tmp_path, results) == 1

    def test_empty_backends_rejected(self, results, tmp_path):
        row = results["space_shard"]["full"]["scenarios"][0]
        row["backends"] = {}
        assert bench.validate_space(results) == [
            f"space_shard.full.{row['scenario']}: backends table is empty"
        ]
        assert _check_exit(tmp_path, results) == 1

    def test_missing_fabric_large_scenario_rejected(self, results, tmp_path):
        report = results["fabric_large"]["full"]
        report["scenarios"] = [
            r for r in report["scenarios"] if r["scenario"] != "saturated_n32"
        ]
        assert bench.validate_fabric_large(results) == [
            "fabric_large.full has no 'saturated_n32' row"
        ]
        assert _check_exit(tmp_path, results) == 1

    def test_missing_manyworlds_scenario_rejected(self, results, tmp_path):
        report = results["manyworlds"]["quick"]
        report["scenarios"] = [
            r for r in report["scenarios"] if r["scenario"] != "imix_n8_32w"
        ]
        assert bench.validate_manyworlds(results) == [
            "manyworlds.quick has no 'imix_n8_32w' row"
        ]
        assert _check_exit(tmp_path, results) == 1

    def test_unknown_manyworlds_mode_rejected(self, results, tmp_path):
        results["manyworlds"]["turbo"] = copy.deepcopy(
            results["manyworlds"]["quick"]
        )
        assert bench.validate_manyworlds(results) == [
            "manyworlds.turbo is not a bench mode (['full', 'quick'])"
        ]
        assert _check_exit(tmp_path, results) == 1

    def test_missing_space_scenario_rejected(self, results, tmp_path):
        report = results["space_shard"]["quick"]
        report["scenarios"] = [
            r for r in report["scenarios"] if r["scenario"] != "clos_n64"
        ]
        assert bench.validate_space(results) == [
            "space_shard.quick has no 'clos_n64' row"
        ]
        assert _check_exit(tmp_path, results) == 1

    def test_kernel_report_under_wrong_mode_rejected(self, results, tmp_path):
        kb = results["kernel_bench"]
        kb["current"]["full"] = copy.deepcopy(kb["current"]["quick"])
        assert bench.validate_results(results) == [
            "kernel_bench.current.full holds a 'quick' report"
        ]
        assert _check_exit(tmp_path, results) == 1


class TestMergeResults:
    def test_quick_run_leaves_full_slot_alone(self):
        """A --quick smoke run after a full-budget one must not replace
        the full-budget current report or its speedups."""
        data = {}
        bench.merge_results(data, _kernel_report("full", 3.0))  # baseline
        bench.merge_results(data, _kernel_report("full", 1.0))
        full = copy.deepcopy(data["kernel_bench"])
        bench.merge_results(data, _kernel_report("quick", 0.5))
        kb = data["kernel_bench"]
        assert kb["current"].get("full") == full["current"]["full"]
        assert kb["speedup_vs_baseline"].get("full") == {
            "fabric": 3.0, "router": 3.0, "wordlevel": 3.0
        }
        assert kb["current"]["quick"]["mode"] == "quick"
        assert bench.validate_results(data) == []

    def test_stale_schema_not_merged_into(self):
        data = {"kernel_bench": {"schema": "repro-kernel-bench/1"}}
        with pytest.raises(ValueError, match="schema"):
            bench.merge_results(data, _kernel_report("quick", 1.0))
