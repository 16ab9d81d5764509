"""Word-level cross-validation: the full static-network model's rates.

Runs the heavyweight word-level router at the two Fig 7-1 endpoints and
reports its throughput next to the phase model's and the paper's -- the
fidelity check behind every phase-level number in the other benches.
"""

import pytest

from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.experiments import paperdata
from repro.router.wordlevel import WordLevelRouter
from repro.traffic.build import wordlevel_source
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec


def run_wordlevel_endpoints():
    result = ExperimentResult(
        name="wordlevel_xval",
        description="Word-level (every word on the static network) peak rates",
    )
    for size, until in ((64, 25_000), (1024, 60_000)):
        spec = TrafficSpec(
            pattern=PatternSpec(kind="permutation"), sizes=SizeSpec(bytes=size)
        )
        source = wordlevel_source(spec, SimConfig())
        router = WordLevelRouter(source, verify_payloads=True)
        res = router.run(until_cycles=until, warmup_cycles=10_000)
        result.add(
            f"{size}B_gbps",
            res.gbps,
            paperdata.PEAK_GBPS[size],
            packets=res.delivered_packets,
            payload_errors=router.payload_errors,
        )
    return result


def test_wordlevel_cross_validation(benchmark, record_table):
    result = benchmark.pedantic(run_wordlevel_endpoints, rounds=1, iterations=1)
    record_table(result)
    assert result.measured("1024B_gbps") == pytest.approx(26.9, rel=0.15)
    assert result.measured("64B_gbps") == pytest.approx(7.3, rel=0.30)
    for row in result.rows:
        assert row["payload_errors"] == 0
