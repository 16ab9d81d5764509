"""Kernel wall-clock throughput: how fast the simulator itself runs.

Unlike the other benches (which regenerate the paper's *simulated*
numbers), this one times the simulator: wall seconds, simulated
cycles/sec, and kernel events/sec per engine at the quick budgets, and
checks the recorded trajectory in ``BENCH_results.json`` against the
pinned pre-optimization baseline.  The full-budget trajectory is
maintained by ``python -m repro bench`` (see the README's Benchmarks
note); this pytest wrapper is the smoke-level entry point.
"""

import pytest

from repro import bench
from repro.experiments.common import ExperimentResult


def run_kernel_bench():
    report = bench.run_bench(mode="quick", repeats=2)
    result = ExperimentResult(
        name="kernel_bench",
        description="Simulator wall-clock throughput (quick budgets)",
    )
    for run in report["runs"]:
        result.add(
            run["engine"],
            round(run["wall_s"], 4),
            events_per_sec=(
                round(run["events_per_sec"]) if run["events_per_sec"] else None
            ),
            cycles_per_sec=round(run["cycles_per_sec"]),
            gbps=round(run["gbps"], 3),
        )
    return result, report


def test_kernel_bench(benchmark, record_table):
    result, report = benchmark.pedantic(
        run_kernel_bench, rounds=1, iterations=1
    )
    record_table(result)
    engines = {run["engine"]: run for run in report["runs"]}
    assert set(engines) == {"fabric", "router", "wordlevel"}
    for run in engines.values():
        assert run["wall_s"] > 0
        assert run["cycles_per_sec"] > 0
    # The wordlevel engine is the hot one: it must report kernel event
    # counts so events/sec regressions are visible.
    assert engines["wordlevel"]["kernel_events"] > 0
    # Results must stay bit-for-bit identical to the pre-optimization
    # kernel; the quick permutation budget delivers a pinned rate.
    assert engines["wordlevel"]["gbps"] == pytest.approx(24.95, rel=0.01)


def test_recorded_results_schema_valid():
    """The committed BENCH_results.json must satisfy the bench schema
    (the same check CI runs via ``python -m repro bench --check``)."""
    data = bench.load_results(bench.DEFAULT_RESULTS_PATH)
    assert bench.validate_results(data) == []
    speedups = data["kernel_bench"]["speedup_vs_baseline"]["full"]
    # The recorded full-budget trajectory: the optimized kernel must
    # hold at least a 3x wordlevel speedup over the seed baseline.
    assert speedups.get("wordlevel", 0.0) >= 3.0
