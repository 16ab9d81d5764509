"""``repro bench --check``: the results-file validators reject stale
sections -- a space row that does not record its host's cores, a mode
missing one of its suite's scenarios, a mode the suite does not have, a
kernel report filed under the wrong mode -- and accept the committed
results file.  The space gate holds the speed floor only on rows with a
core per worker.  Merging a kernel report touches only its own budget
mode's slots."""

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

    def test_space_row_without_cpu_count_rejected(self, results, tmp_path):
        del results["space_shard"]["quick"]["scenarios"][0]["cpu_count"]
        assert bench.validate_space(results) == [
            "space_shard.quick scenario missing 'cpu_count'"
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


def _space_row(name, partitions, cpu_count, speedup, stats_match=True,
               serial_fallback=False):
    return {
        "scenario": name, "partitions": partitions, "cpu_count": cpu_count,
        "oversubscribed": partitions > cpu_count, "speedup": speedup,
        "stats_match": stats_match,
        "space": {"serial_fallback": serial_fallback},
    }


class TestSpaceGate:
    def test_oversubscribed_rows_not_held_to_the_floor(self):
        report = {"scenarios": [_space_row("p4", 4, 2, 0.5),
                                _space_row("p2", 2, 2, 1.1)]}
        assert bench.check_space(report) == []

    def test_slow_row_with_a_core_per_worker_fails(self):
        report = {"scenarios": [_space_row("p2", 2, 2, 0.9)]}
        assert bench.check_space(report) == [
            "p2: speedup 0.9 < 1.0 with P=2 on 2 cores"
        ]

    def test_identity_and_fallback_checked_on_every_row(self):
        report = {"scenarios": [
            _space_row("p4", 4, 2, 2.0, stats_match=False,
                       serial_fallback=True),
            _space_row("p2", 2, 2, 1.1),
        ]}
        assert bench.check_space(report) == [
            "p4: partitioned stats differ from the single-process reference",
            "p4: fell back to serial (not a distributed measurement)",
        ]

    def test_host_without_a_qualifying_row_fails(self):
        report = {"scenarios": [_space_row("p2", 2, 1, 3.0)]}
        assert bench.check_space(report) == [
            "no scenario has P <= cpu_count, so none was held to the "
            "speed floor"
        ]


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
