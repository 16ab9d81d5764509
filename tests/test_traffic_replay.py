"""Trace replay: trace files, the streaming TraceReplay model, the
``repro replay`` smoke, and replay through every engine.  (Partitioned
identity for every counter-based source, replay included, lives in
``tests/test_space_shard.py``.)"""

import json
from pathlib import Path

import pytest

from repro.traffic.replay import TraceReplay, iter_flows, run_replay, scan_trace
from repro.traffic.rng import draw_int
from repro.traffic.spec import SizeSpec, TrafficSpec

#: The bundled trace, which ``generate_trace`` must reproduce.
EXAMPLE_TRACE = Path(__file__).resolve().parent.parent / "examples/traces/imix_1k.csv"


def generate_trace(path: str, flows: int, ports: int, seed: int) -> int:
    """Write a synthetic IMIX flow trace; returns total packet count.

    Deterministic in ``seed`` (counter-based draws): ``flows=1000,
    ports=4, seed=0`` writes the bundled ``examples/traces/imix_1k.csv``.
    """
    cdf = []
    acc = 0
    for w in SizeSpec.IMIX_WEIGHTS:
        acc += w
        cdf.append(acc)
    total = 0
    jsonl = path.endswith(".jsonl")
    with open(path, "w") as fh:
        if not jsonl:
            fh.write("src,dst,bytes,count\n")
        for i in range(flows):
            src = draw_int(seed, 1, i, ports)
            dst = draw_int(seed, 2, i, ports - 1)
            if dst >= src:
                dst += 1  # flows never loop back to their own port
            u = draw_int(seed, 3, i, cdf[-1])
            nbytes = SizeSpec.IMIX_SIZES[next(j for j, c in enumerate(cdf) if u < c)]
            count = 1 + draw_int(seed, 4, i, 8)
            total += count
            if jsonl:
                fh.write(json.dumps(
                    {"src": src, "dst": dst, "bytes": nbytes, "count": count}
                ) + "\n")
            else:
                fh.write(f"{src},{dst},{nbytes},{count}\n")
    return total


@pytest.fixture()
def trace_csv(tmp_path):
    path = str(tmp_path / "t.csv")
    generate_trace(path, flows=120, ports=4, seed=9)
    return path


@pytest.fixture()
def trace_jsonl(tmp_path):
    path = str(tmp_path / "t.jsonl")
    generate_trace(path, flows=120, ports=4, seed=9)
    return path


class TestTraceFiles:
    def test_generate_is_deterministic(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        na = generate_trace(a, flows=200, ports=4, seed=5)
        nb = generate_trace(b, flows=200, ports=4, seed=5)
        assert na == nb
        assert open(a).read() == open(b).read()
        # A different seed writes a different trace.
        c = str(tmp_path / "c.csv")
        generate_trace(c, flows=200, ports=4, seed=6)
        assert open(a).read() != open(c).read()

    def test_bundled_example_trace_is_generated(self, tmp_path):
        path = str(tmp_path / "imix_1k.csv")
        generate_trace(path, flows=1000, ports=4, seed=0)
        assert open(path).read() == EXAMPLE_TRACE.read_text()

    def test_csv_and_jsonl_parse_identically(self, trace_csv, trace_jsonl):
        assert list(iter_flows(trace_csv)) == list(iter_flows(trace_jsonl))
        assert scan_trace(trace_csv) == scan_trace(trace_jsonl)

    def test_scan_totals(self, trace_csv):
        info = scan_trace(trace_csv)
        assert info["records"] == 120
        assert info["ports"] == 4
        assert info["packets"] >= info["records"]

    def test_malformed_records_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("src,dst,bytes,count\n0,not_a_port,64,1\n")
        with pytest.raises(ValueError, match="malformed"):
            list(iter_flows(str(bad)))

    def test_out_of_range_port_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("src,dst,bytes,count\n0,9,64,1\n")
        replay = TraceReplay(str(bad), n=4)
        with pytest.raises(ValueError, match="out of range"):
            replay.next_packet(0)

    def test_missing_file_rejected(self):
        with pytest.raises(FileNotFoundError):
            TraceReplay("/no/such/trace.csv", n=4)


class TestTraceReplayModel:
    def test_streams_every_packet_once(self, trace_csv):
        info = scan_trace(trace_csv)
        replay = TraceReplay(trace_csv, n=4)
        taken = 0
        for port in range(4):
            while replay.next_packet(port) is not None:
                taken += 1
        assert taken == info["packets"]
        # Exhausted (loop=False): every port returns None forever.
        assert all(replay.next_packet(p) is None for p in range(4))

    def test_loop_wraps_at_eof(self, trace_csv):
        info = scan_trace(trace_csv)
        replay = TraceReplay(trace_csv, n=4, loop=True)
        first_pass = [replay.next_packet(0) for _ in range(50)]
        assert None not in first_pass
        # Far more draws than one file pass still never run dry.
        for _ in range(info["packets"]):
            assert replay.next_packet(0) is not None

    def test_loop_with_empty_port_stops(self, tmp_path):
        # Port 3 never appears as a src: pulling from it must not spin.
        path = tmp_path / "p.csv"
        path.write_text("src,dst,bytes,count\n0,1,64,2\n1,0,64,2\n")
        replay = TraceReplay(str(path), n=4, loop=True)
        assert replay.next_packet(3) is None

    def test_stream_is_interleaving_independent(self, trace_csv):
        # Two replays reaching the same consumed counts by different
        # orders must produce identical futures: what lets a partition
        # poll only its own ports.
        a = TraceReplay(trace_csv, n=4)
        for _ in range(10):
            a.next_packet(0)
        for _ in range(5):
            a.next_packet(2)
        b = TraceReplay(trace_csv, n=4)
        for _ in range(5):
            b.next_packet(2)
        for _ in range(10):
            b.next_packet(0)
        seq = [(p, a.next_packet(p)) for p in (0, 1, 2, 3) * 8]
        assert [(p, b.next_packet(p)) for p in (0, 1, 2, 3) * 8] == seq


class TestRunReplaySmoke:
    def test_run_replay_checks_pass(self, trace_csv):
        doc, problems = run_replay(trace_csv, quanta=120, cycles=8_000,
                                   check=True)
        assert problems == []
        assert doc["schema"] == "repro-replay-stats/2"
        assert doc["fabric"]["delivered_packets"] > 0
        # 4 trace ports: the space check runs a k=2 Clos, P=2 vs P=1.
        space = doc["space"]
        assert space["k"] == 2 and space["partitions"] == 2
        assert space["space_match"] is True
        assert space["skipped"] is None
        assert space["delivered_packets"] > 0
        assert doc["wordlevel"]["delivered_packets"] > 0
        # The document is JSON-serializable as-is (the CI artifact).
        json.dumps(doc)

    def test_run_replay_is_deterministic(self, trace_csv):
        doc1, _ = run_replay(trace_csv, quanta=100, cycles=6_000)
        doc2, _ = run_replay(trace_csv, quanta=100, cycles=6_000)
        assert doc1 == doc2

    def test_non_square_trace_skips_space_check(self, tmp_path):
        path = str(tmp_path / "t3.csv")
        generate_trace(path, flows=60, ports=3, seed=4)
        doc, problems = run_replay(path, quanta=80, check=True)
        assert problems == []
        assert doc["space"]["space_match"] is None
        assert "3 ports" in doc["space"]["skipped"]
        assert doc["wordlevel"] is None


class TestEngineReplay:
    def test_fabric_engine_replays_a_trace_path(self, trace_csv):
        from repro.config import SimConfig
        from repro.engines import FabricEngine, WorkloadSpec

        res = FabricEngine(SimConfig(seed=0)).run(
            WorkloadSpec(traffic=trace_csv, quanta=150)
        )
        assert res.delivered_packets > 0
        info = scan_trace(trace_csv)
        # loop=False: the engine can never deliver more than the trace holds.
        assert res.delivered_packets <= info["packets"]

    def test_wordlevel_engine_loops_the_trace(self, trace_csv):
        from repro.config import SimConfig
        from repro.engines import WordLevelEngine, WorkloadSpec

        res = WordLevelEngine(SimConfig(fidelity="wordlevel", seed=0)).run(
            WorkloadSpec(
                traffic=TrafficSpec(kind="replay", trace=trace_csv, loop=True),
                cycles=10_000,
                warmup_cycles=0,
            )
        )
        assert res.delivered_packets > 0
        assert res.extra.get("payload_errors", 0) == 0

    def test_router_engine_replays_a_trace(self, trace_csv):
        from repro.config import SimConfig
        from repro.engines import RouterEngine, WorkloadSpec

        res = RouterEngine(SimConfig(fidelity="router", seed=0)).run(
            WorkloadSpec(
                traffic=TrafficSpec(kind="replay", trace=trace_csv, loop=True),
                packets=60,
            )
        )
        assert res.delivered_packets >= 60
