"""Partition-boundary invariants of the space-partitioned fabric.

The contract under test (ISSUE 8 / DESIGN.md §13): a P-partitioned
token-window run is *bit-identical* to the single-process reference for
every supported cell -- across partition counts, chip sizes, channel
latencies, and traffic families -- and the stats merge is associative,
so any grouping of partitions folds to the same totals.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel, SimConfig
from repro.core.fabricsim import FabricStats
from repro.core.spacetopo import PartitionSim, clos_topology, merge_part_stats
from repro.engines import SpaceEngine, WorkloadSpec, run_config
from repro.faults import FaultEvent, FaultPlan
from repro.parallel import SpaceRunInfo, SpaceSpec, run_space, run_space_serial
from repro.parallel.space_shard import _simulate_partition
from repro.telemetry import runtime
from repro.traffic.build import shard_source
from repro.traffic.spec import PRESETS, TrafficSpec, spec_from_legacy

#: Every pipe end a run opens must be closed, not left to the collector.
pytestmark = pytest.mark.usefixtures("no_leaked_connections")


#: The bundled 4-port trace; at k=4 its ports 0-3 feed one ingress chip.
EXAMPLE_TRACE = str(
    Path(__file__).resolve().parent.parent / "examples/traces/imix_1k.csv"
)


def assert_stats_identical(a: FabricStats, b: FabricStats) -> None:
    assert a.counters() == b.counters()


#: Every counter-based traffic family: a permutation, every traffic
#: preset, the flat-kwargs uniform spec at two sizes, and trace replay.
#: The imix preset appears twice: named as a preset and packed as a
#: ``TrafficSpec``, at two seeds.
SOURCES = {
    "permutation": shard_source(
        spec_from_legacy(pattern="permutation", packet_bytes=256, shift=3)
    ),
    "uniform": shard_source(
        spec_from_legacy(pattern="uniform", packet_bytes=192), seed=11
    ),
    "imix": shard_source("imix", seed=5),
    "imix_packed": shard_source(PRESETS["imix"], seed=11),
    **{
        name: shard_source(PRESETS[name], seed=11)
        for name in ("imix_onoff", "imix_heavy", "bursty", "hotspot_drift",
                     "bernoulli")
    },
    "legacy_uniform": shard_source(
        spec_from_legacy(pattern="uniform", packet_bytes=512), seed=2
    ),
    "replay": shard_source(TrafficSpec(kind="replay", trace=EXAMPLE_TRACE)),
}


def spec_for(k: int, partitions: int, source_key: str, latency: int = 2,
             quanta: int = 200, warmup: int = 30) -> SpaceSpec:
    return SpaceSpec(
        k=k,
        latency=latency,
        partitions=partitions,
        source=SpaceSpec.pack_source(SOURCES[source_key]),
        quanta=quanta,
        warmup_quanta=warmup,
    )


# ---------------------------------------------------------------------------
# The in-process harness: the window protocol without processes.
# ---------------------------------------------------------------------------
def _run_partitions_inprocess(spec: SpaceSpec):
    """Run every partition's :func:`_simulate_partition` in this
    process over deque mailboxes; returns ``(topo, blocks, {part_id:
    result})``.

    Each partition runs its whole timeline in one go, in partition
    order.  Every Clos channel runs from a lower node id to a higher one
    (ingress -> middle -> egress) and blocks are contiguous, so every
    in-peer's batches exist before their consumer starts; an empty
    mailbox means the window protocol was violated.
    """
    topo = spec.topology()
    blocks = topo.partition(spec.partitions)
    parts = range(len(blocks))
    mailboxes = {(src, dst): deque() for src in parts for dst in parts
                 if src != dst}

    def recv_fn(src: int, dst: int):
        box = mailboxes[src, dst]

        def _recv():
            if not box:
                raise RuntimeError(
                    f"deadlock: partition {dst} waiting on {src} with an "
                    "empty mailbox (window protocol violated)"
                )
            return box.popleft()

        return _recv

    results = {}
    for part_id in parts:
        recv_fns = {src: recv_fn(src, part_id) for src in parts
                    if src != part_id}
        send_fns = {dst: mailboxes[part_id, dst].append for dst in parts
                    if dst != part_id}
        results[part_id] = _simulate_partition(
            spec, part_id, blocks, recv_fns, send_fns
        )
    return topo, blocks, results


def run_space_inprocess(spec: SpaceSpec):
    """The token-window protocol with every partition in one process:
    the workers' :func:`_simulate_partition` with mailboxes for pipes,
    so it pins the protocol (window sizing, batch ordering, unequal
    partition sizes) without multiprocessing nondeterminism."""
    topo, blocks, results = _run_partitions_inprocess(spec)
    ordered = [results[p] for p in range(len(blocks))]
    stats = merge_part_stats(
        [r[0] for r in ordered], topo.num_ports, spec.costs
    )
    info = SpaceRunInfo(
        partitions=len(blocks),
        workers=1,
        window=min(topo.window(blocks), spec.warmup_quanta + spec.quanta),
        rounds=max(r[1] for r in ordered),
        node_blocks=blocks,
        windows_per_worker=[r[1] for r in ordered],
        pipe_stall_s=[r[2] for r in ordered],
        boundary_flits=[r[3] for r in ordered],
        bytes_moved=[0] * len(ordered),
    )
    return stats, info


# ---------------------------------------------------------------------------
# Topology invariants.
# ---------------------------------------------------------------------------
class TestTopology:
    def test_clos_shape(self):
        topo = clos_topology(4, latency=3)
        assert topo.num_nodes == 12
        assert topo.num_ports == 16
        assert len(topo.channels) == 32  # k^2 ingress->middle + k^2 ->egress
        assert all(ch.latency == 3 for ch in topo.channels)
        # Every global port maps in and out exactly once.
        assert sorted(topo.ext_in) == list(range(16))
        assert sorted(topo.ext_out.values()) == list(range(16))

    def test_route_reaches_every_destination(self):
        topo = clos_topology(4)
        for src in range(16):
            for dst in range(16):
                node, leg = topo.ext_in[src]
                # ingress -> middle
                mid_ch = topo.out_channel[(node, topo.route(node, dst))]
                # middle -> egress
                eg_ch = topo.out_channel[
                    (mid_ch.dst_node, topo.route(mid_ch.dst_node, dst))
                ]
                out_leg = topo.route(eg_ch.dst_node, dst)
                assert topo.ext_out[(eg_ch.dst_node, out_leg)] == dst

    def test_partition_balanced_and_window(self):
        topo = clos_topology(4, latency=5)
        blocks = topo.partition(5)  # 12 nodes over 5 parts: 3,3,2,2,2
        assert [len(b) for b in blocks] == [3, 3, 2, 2, 2]
        assert sorted(n for b in blocks for n in b) == list(range(12))
        assert topo.window(blocks) == 5
        # One partition: no boundary, effectively unbounded window.
        assert topo.window(topo.partition(1)) > 10**6

    def test_partition_clamps_to_node_count(self):
        topo = clos_topology(2)  # 6 nodes
        assert len(topo.partition(64)) == 6

    def test_latency_must_be_positive(self):
        with pytest.raises(ValueError):
            clos_topology(4, latency=0)


# ---------------------------------------------------------------------------
# Bit-identity: partitioned == serial, every supported cell.
# ---------------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("source_key", sorted(SOURCES))
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_inprocess_matches_serial(self, k, partitions, source_key):
        spec = spec_for(k, partitions, source_key)
        ref = run_space_serial(spec)
        got, info = run_space_inprocess(spec)
        assert_stats_identical(ref, got)
        assert info.partitions == min(partitions, 3 * k)

    def test_unequal_partition_sizes(self):
        # P=5 over 12 chips: blocks of 3/3/2/2/2 -- the window-batch
        # ordering must hold when partitions straddle stage boundaries.
        spec = spec_for(4, 5, "permutation", latency=1)
        ref = run_space_serial(spec)
        got, info = run_space_inprocess(spec)
        assert_stats_identical(ref, got)
        assert [len(b) for b in info.node_blocks] == [3, 3, 2, 2, 2]

    def test_larger_chip_short_run(self):
        spec = spec_for(8, 4, "permutation", latency=4, quanta=80, warmup=10)
        ref = run_space_serial(spec)
        got, _ = run_space_inprocess(spec)
        assert_stats_identical(ref, got)

    def test_serial_matches_reference_rule(self, reference_rule):
        spec = spec_for(4, 1, "uniform")
        compiled = run_space_serial(spec)
        with reference_rule() as ref_cls:
            reference = run_space_serial(spec)
        assert ref_cls.calls > 0
        assert_stats_identical(reference, compiled)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.sampled_from((2, 3, 4)),
        partitions=st.integers(1, 6),
        latency=st.integers(1, 4),
        source_key=st.sampled_from(sorted(SOURCES)),
    )
    def test_property_partitioning_never_changes_stats(
        self, k, partitions, latency, source_key
    ):
        spec = spec_for(
            k, partitions, source_key, latency=latency, quanta=90, warmup=15
        )
        ref = run_space_serial(spec)
        got, _ = run_space_inprocess(spec)
        assert_stats_identical(ref, got)

    def test_workers_match_serial(self):
        for source_key in ("permutation", "uniform"):
            spec = spec_for(4, 4, source_key, latency=3, quanta=250, warmup=30)
            got, info = run_space(spec)
            assert multiprocessing.active_children() == []
            assert_stats_identical(run_space_serial(spec), got)
            assert not info.serial_fallback
            assert info.workers == 4


# ---------------------------------------------------------------------------
# Window protocol details.
# ---------------------------------------------------------------------------
class TestWindowProtocol:
    def test_window_counters_consistent(self):
        spec = spec_for(4, 3, "permutation", latency=2, quanta=200, warmup=20)
        _, info = run_space_inprocess(spec)
        total = spec.quanta + spec.warmup_quanta
        expected_rounds = -(-total // spec.latency)
        assert info.window == spec.latency
        assert info.rounds == expected_rounds
        assert info.windows_per_worker == [expected_rounds] * 3
        # Ingress and middle partitions send boundary flits; the egress
        # partition only receives.
        assert info.boundary_flits[-1] == 0
        assert sum(info.boundary_flits) > 0

    def test_boundary_flits_conserved_across_partitionings(self):
        # Total delivered traffic is partitioning-invariant even though
        # boundary volume is not.
        spec2 = spec_for(4, 2, "permutation")
        spec4 = spec_for(4, 4, "permutation")
        s2, i2 = run_space_inprocess(spec2)
        s4, i4 = run_space_inprocess(spec4)
        assert_stats_identical(s2, s4)
        # More cuts can only expose more (or equal) boundary traffic.
        assert sum(i4.boundary_flits) >= sum(i2.boundary_flits)

    def test_missing_batch_is_detected(self):
        # Running a consumer partition before its producer violates the
        # window protocol; the transport must fail loudly (empty
        # mailbox), not silently simulate with missing traffic.
        spec = spec_for(4, 3, "permutation")
        topo = spec.topology()
        blocks = topo.partition(3)
        empty = deque()

        def starved_recv():
            if not empty:
                raise RuntimeError("deadlock: empty mailbox")
            return empty.popleft()

        sent = []
        # Partition 1 (middle chips) consumes ingress batches that were
        # never produced.
        with pytest.raises(RuntimeError, match="deadlock"):
            _simulate_partition(
                spec,
                1,
                blocks,
                recv_fns={0: starved_recv},
                send_fns={2: sent.append},
            )

    def test_batch_count_matches_round_count(self):
        # Each producer sends exactly rounds-1 batches per out-peer
        # (every round but the last), empty windows included -- the
        # receiver counts batches, not flits, to frame its windows.
        spec = spec_for(2, 3, "permutation", latency=3, quanta=50, warmup=10)
        topo = spec.topology()
        blocks = topo.partition(3)
        total = spec.quanta + spec.warmup_quanta
        rounds = -(-total // spec.latency)
        sent_to_middle = deque()
        _, got_rounds, *_ = _simulate_partition(
            spec, 0, blocks, recv_fns={}, send_fns={1: sent_to_middle.append}
        )
        assert got_rounds == rounds
        assert len(sent_to_middle) == rounds - 1

    def test_late_boundary_fragment_fails_loudly(self):
        # A boundary fragment due at a quantum this partition already
        # simulated cannot be delivered on time; delivering it late
        # would silently diverge from the serial run.
        spec = spec_for(4, 2, "permutation", latency=2)
        topo = spec.topology()
        blocks = topo.partition(2)
        sim = PartitionSim(topo, blocks[1], costs=spec.costs)
        ch = topo.boundary_channels(blocks)[0]
        sim.advance(None, 0, 10, 0)  # no external inputs: never polled
        with pytest.raises(RuntimeError, match="already simulated"):
            sim.inject(ch.cid, 10 - ch.latency - 1, (5, 8, True))
        # Due exactly at the next quantum is on time.
        sim.inject(ch.cid, 10 - ch.latency, (5, 8, True))
        sim.advance(None, 10, 1, 0)

    def test_non_contiguous_advance_fails_loudly(self):
        # Skipping or repeating a quantum would drop or re-run its due
        # deliveries, so advance() only steps on from where it stopped.
        spec = spec_for(4, 2, "permutation", latency=2)
        topo = spec.topology()
        sim = PartitionSim(topo, topo.partition(2)[1], costs=spec.costs)
        sim.advance(None, 0, 4, 0)
        for q_start in (5, 3):
            with pytest.raises(RuntimeError, match="next unsimulated"):
                sim.advance(None, q_start, 1, 0)
        sim.advance(None, 4, 1, 0)


# ---------------------------------------------------------------------------
# Merge associativity.
# ---------------------------------------------------------------------------
class TestMergeAssociativity:
    def _partition_payloads(self, spec: SpaceSpec):
        """Run the window protocol in-process and keep the raw
        per-partition PartStats (before the merge folds them)."""
        topo, blocks, results = _run_partitions_inprocess(spec)
        return topo, [results[p][0] for p in range(len(blocks))]

    @staticmethod
    def _combine(a, b):
        """Fold two PartStats into one, the way a tree merge would."""
        from repro.core.spacetopo import PartStats

        return PartStats(
            num_ports=a.num_ports,
            delivered_words=a.delivered_words + b.delivered_words,
            delivered_packets=a.delivered_packets + b.delivered_packets,
            per_port_words=[
                x + y for x, y in zip(a.per_port_words, b.per_port_words)
            ],
            per_port_packets=[
                x + y for x, y in zip(a.per_port_packets, b.per_port_packets)
            ],
            blocked_events=a.blocked_events + b.blocked_events,
            body_max=[max(x, y) for x, y in zip(a.body_max, b.body_max)],
        )

    def test_merge_is_order_invariant(self):
        spec = spec_for(4, 3, "uniform")
        ref = run_space_serial(spec)
        topo, parts = self._partition_payloads(spec)
        for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
            merged = merge_part_stats(
                [parts[i] for i in order], topo.num_ports, spec.costs
            )
            assert_stats_identical(ref, merged)

    def test_merge_is_grouping_invariant(self):
        # ((p0+p1), p2) == (p0, (p1+p2)) == flat -- true associativity
        # over space partitions.
        spec = spec_for(4, 3, "permutation")
        topo, parts = self._partition_payloads(spec)
        flat = merge_part_stats(parts, topo.num_ports, spec.costs)
        left = merge_part_stats(
            [self._combine(parts[0], parts[1]), parts[2]],
            topo.num_ports,
            spec.costs,
        )
        right = merge_part_stats(
            [parts[0], self._combine(parts[1], parts[2])],
            topo.num_ports,
            spec.costs,
        )
        assert_stats_identical(flat, left)
        assert_stats_identical(flat, right)

    def test_merge_rejects_mismatched_quanta(self):
        from repro.core.spacetopo import PartStats

        a = PartStats(num_ports=4, body_max=[1, 2])
        b = PartStats(num_ports=4, body_max=[1])
        with pytest.raises(ValueError, match="quantum counts"):
            merge_part_stats([a, b], 4, CostModel.default())

    def test_merge_rejects_mismatched_ports(self):
        from repro.core.spacetopo import PartStats

        a = PartStats(num_ports=4, body_max=[1])
        b = PartStats(num_ports=8, body_max=[1])
        with pytest.raises(ValueError, match="port counts"):
            merge_part_stats([a, b], 4, CostModel.default())

    def test_payload_roundtrip(self):
        # A worker returns its PartStats over the result pipe as it is.
        spec = spec_for(2, 1, "permutation", quanta=50, warmup=5)
        topo = spec.topology()
        sim = PartitionSim(topo, range(topo.num_nodes), costs=spec.costs)
        from repro.parallel.space_shard import make_space_source

        sim.advance(make_space_source(spec), 0, 55, 5)
        restored = pickle.loads(pickle.dumps(sim.stats, pickle.HIGHEST_PROTOCOL))
        assert restored == sim.stats


# ---------------------------------------------------------------------------
# Engine integration + loud fallback.
# ---------------------------------------------------------------------------
class TestSpaceEngine:
    def test_run_config_partition_invariance(self):
        wl = WorkloadSpec(pattern="permutation", shift=5, quanta=200)
        base = SimConfig(ports=16, fidelity="space", link_latency=2)
        ref = run_config(base, wl)
        for p in (2, 4):
            got = run_config(base.replace(partitions=p), wl)
            assert got.cycles == ref.cycles
            assert got.delivered_words == ref.delivered_words
            assert got.per_port_packets == ref.per_port_packets
            assert not got.extra["space_shard"]["serial_fallback"]

    def test_space_extra_surfaces_counters(self):
        cfg = SimConfig(ports=16, fidelity="space", partitions=2)
        res = run_config(cfg, WorkloadSpec(quanta=120))
        sp = res.extra["space_shard"]
        assert sp["workers"] == 2
        assert sp["window"] == cfg.link_latency
        assert len(sp["pipe_stall_s"]) == 2
        assert len(sp["boundary_flits"]) == 2

    @pytest.mark.parametrize(
        "kind", ["zipf", "uniform_counter", "permutation"]
    )
    def test_unknown_source_kind_rejected(self, kind):
        # "uniform_counter" and "permutation" were source kinds once; a
        # stale spec that still names one must fail loudly, not run some
        # other source.
        spec = SpaceSpec(source=SpaceSpec.pack_source({"kind": kind}))
        with pytest.raises(ValueError, match=f"unknown space source kind '{kind}'"):
            run_space_serial(spec)

    def test_worker_error_carries_traceback(self):
        # Every worker raises building its source, so none waits on a
        # peer; the coordinator's error must say where they failed.
        spec = SpaceSpec(partitions=2, quanta=20, warmup_quanta=0,
                         source=SpaceSpec.pack_source({"kind": "zipf"}))
        with pytest.raises(RuntimeError) as err:
            run_space(spec)
        msg = str(err.value)
        assert "unknown space source kind 'zipf'" in msg
        assert "Traceback" in msg
        assert "make_space_source" in msg

    def test_nonsquare_ports_rejected(self):
        cfg = SimConfig(ports=8, fidelity="space")
        with pytest.raises(ValueError, match="square"):
            run_config(cfg, WorkloadSpec(quanta=50))

    def test_fault_plans_rejected(self):
        from repro.faults import FaultEvent, FaultPlan

        cfg = SimConfig(ports=16, fidelity="space")
        wl = WorkloadSpec(
            quanta=50,
            fault_plan=FaultPlan(
                events=(FaultEvent(cycle=10, kind="token_loss"),)
            ),
        )
        with pytest.raises(ValueError, match="fault"):
            run_config(cfg, wl)

    def test_telemetry_runs_distributed_and_merges(self):
        # Telemetry no longer forces a serial fallback: workers record
        # locally, states merge on the coordinator, and the run stays
        # distributed, silent, and bit-identical.
        spec = spec_for(4, 3, "permutation", quanta=100, warmup=10)
        ref = run_space_serial(spec)
        with runtime.capture() as tel:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got, info = run_space(spec)
        assert not info.serial_fallback
        assert info.workers == 3
        assert not caught
        assert_stats_identical(ref, got)
        summary = tel.summary()
        assert summary["space_shard"]["serial_fallback"] is False
        assert summary["space_shard"]["partitions"] == 3
        assert sorted(tel.workers) == [0, 1, 2]
        assert tel.journeys.completed > 0

    def test_live_snapshots_stream_from_every_worker(self):
        # ``repro top`` wires a collector into ``on_snapshot``: a P=2 run
        # under telemetry streams mid-run states from both workers, and
        # streaming does not change the result.
        wl = WorkloadSpec(pattern="uniform", quanta=200)
        snaps = []
        with runtime.capture():
            engine = SpaceEngine(SimConfig(ports=16, fidelity="space",
                                           partitions=2))
            engine.on_snapshot = lambda part, state: snaps.append(
                (part, state["worker"], state["meta"]["partition"]))
            got = engine.run(wl)
        assert {part for part, _, _ in snaps} == {0, 1}
        assert all(part == worker == meta for part, worker, meta in snaps)
        assert not got.extra["space_shard"]["serial_fallback"]
        ref = run_config(SimConfig(ports=16, fidelity="space", partitions=1), wl)
        assert (got.cycles, got.delivered_words, got.per_port_packets) == (
            ref.cycles, ref.delivered_words, ref.per_port_packets)

    def test_telemetry_tables_identical_across_partitions(self):
        # The merged stage/dimension tables and the detailed-journey
        # reservoir must not depend on the partition count.
        tables = {}
        for parts in (1, 3):
            spec = spec_for(4, parts, "permutation", quanta=100, warmup=10)
            with runtime.capture() as tel:
                run_space(spec)
            tables[parts] = (
                {s: h.to_dict() for s, h in tel.journeys.stage_hist.items()},
                {k: h.to_dict() for k, h in tel.journeys.dim_hist.items()},
                [j.to_dict() for j in tel.journeys.detailed],
                (tel.journeys.completed, tel.journeys.dropped),
            )
        assert tables[1] == tables[3]

    def test_partitions_one_is_silent_serial(self):
        spec = spec_for(4, 1, "permutation", quanta=100, warmup=10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, info = run_space(spec)
        assert info.serial_fallback and info.fallback_reason == "partitions=1"
        assert not caught  # asking for 1 worker and getting 1 is not a lie
        assert_stats_identical(run_space_serial(spec), got)


# ---------------------------------------------------------------------------
# Pinned outputs: the engine against fixed numbers, not against itself.
# ---------------------------------------------------------------------------
#: WorkloadSpec kwargs per traffic name in :data:`PINNED`.
PIN_TRAFFIC = {
    "uniform1024": {"pattern": "uniform", "packet_bytes": 1024},
    "imix": {"traffic": "imix"},
    "hotspot": {"pattern": "hotspot"},
    "imix_onoff": {"traffic": "imix_onoff"},
    "bernoulli": {"traffic": "bernoulli"},
}

#: Two outages on the 16-port Clos: ingress 1 -> middle 1 (channel 5)
#: and middle 1 -> egress 0 (channel 20).
PIN_LINK_DOWN = FaultPlan(events=(
    FaultEvent(cycle=30, kind="link_down", target="link:5", duration=40),
    FaultEvent(cycle=60, kind="link_down", target="link:20", duration=25),
))

#: case -> (cycles, delivered_words, delivered_packets, blocked_events,
#: idle_quanta, per_port_packets) at seed 1 over 120 measured quanta.
#: ``n<ports>-<traffic>-lat<link latency>`` is a serial ``run_config``
#: with the default warm-up (``-link_down`` adds :data:`PIN_LINK_DOWN`).
#: Computed by the stepper that kept one arrival FIFO per channel; only
#: a deliberate change to the model may re-pin them.
PINNED = {
    "n16-uniform1024-lat1": (36719, 311296, 1216, 1224, 0, [
        80, 68, 68, 73, 72, 76, 85, 72, 81, 89, 66, 83, 81, 69, 83, 70
    ]),
    "n16-uniform1024-lat4": (36720, 314368, 1228, 1173, 0, [
        79, 67, 68, 73, 79, 76, 82, 75, 81, 91, 65, 88, 81, 69, 80, 74
    ]),
    "n16-imix-lat1": (35627, 95280, 1216, 1224, 0, [
        80, 68, 68, 73, 72, 76, 85, 72, 81, 89, 66, 83, 81, 69, 83, 70
    ]),
    "n16-imix-lat4": (35858, 96640, 1228, 1173, 0, [
        79, 67, 68, 73, 79, 76, 82, 75, 81, 91, 65, 88, 81, 69, 80, 74
    ]),
    "n16-hotspot-lat1": (36662, 67584, 264, 1661, 0, [
        120, 9, 12, 14, 5, 9, 11, 9, 1, 12, 9, 9, 3, 10, 18, 13
    ]),
    "n16-hotspot-lat4": (36664, 69376, 271, 1660, 0, [
        120, 9, 13, 14, 5, 10, 12, 9, 2, 12, 9, 10, 3, 10, 19, 14
    ]),
    "n64-uniform1024-lat1": (37263, 994048, 3883, 6565, 0, [
        59, 44, 50, 66, 54, 71, 68, 63, 64, 63, 75, 65, 62, 60, 61, 64,
        61, 53, 45, 60, 67, 65, 48, 48, 49, 80, 60, 44, 53, 58, 59, 65,
        57, 66, 66, 65, 50, 64, 64, 56, 57, 62, 57, 49, 58, 67, 77, 56,
        55, 68, 80, 65, 58, 71, 72, 52, 61, 68, 49, 61, 64, 60, 55, 69
    ]),
    "n64-uniform1024-lat4": (37268, 996864, 3894, 6588, 0, [
        60, 44, 56, 65, 55, 68, 71, 64, 63, 63, 77, 62, 65, 55, 63, 61,
        61, 54, 48, 60, 66, 64, 47, 47, 49, 80, 60, 50, 51, 54, 57, 66,
        56, 71, 68, 64, 52, 56, 62, 58, 55, 62, 62, 52, 57, 62, 72, 58,
        55, 69, 84, 67, 59, 70, 74, 56, 62, 71, 49, 65, 63, 53, 53, 71
    ]),
    "n64-imix-lat1": (36978, 307936, 3883, 6565, 0, [
        59, 44, 50, 66, 54, 71, 68, 63, 64, 63, 75, 65, 62, 60, 61, 64,
        61, 53, 45, 60, 67, 65, 48, 48, 49, 80, 60, 44, 53, 58, 59, 65,
        57, 66, 66, 65, 50, 64, 64, 56, 57, 62, 57, 49, 58, 67, 77, 56,
        55, 68, 80, 65, 58, 71, 72, 52, 61, 68, 49, 61, 64, 60, 55, 69
    ]),
    "n64-imix-lat4": (36977, 308096, 3894, 6588, 0, [
        60, 44, 56, 65, 55, 68, 71, 64, 63, 63, 77, 62, 65, 55, 63, 61,
        61, 54, 48, 60, 66, 64, 47, 47, 49, 80, 60, 50, 51, 54, 57, 66,
        56, 71, 68, 64, 52, 56, 62, 58, 55, 62, 62, 52, 57, 62, 72, 58,
        55, 69, 84, 67, 59, 70, 74, 56, 62, 71, 49, 65, 63, 53, 53, 71
    ]),
    "n64-hotspot-lat1": (37003, 128256, 501, 7192, 0, [
        120, 4, 6, 8, 3, 13, 10, 6, 0, 9, 6, 10, 8, 1, 3, 9, 2, 7, 13,
        10, 7, 6, 7, 6, 2, 5, 4, 4, 3, 6, 11, 8, 0, 5, 1, 9, 1, 6, 6, 3,
        2, 10, 6, 6, 3, 9, 8, 7, 0, 10, 3, 10, 10, 2, 6, 5, 1, 5, 9, 9,
        6, 8, 10, 8
    ]),
    "n64-hotspot-lat4": (37016, 128768, 503, 7192, 0, [
        120, 5, 6, 9, 4, 14, 10, 7, 0, 8, 7, 9, 8, 1, 3, 9, 2, 7, 12,
        11, 8, 5, 7, 6, 1, 6, 4, 5, 4, 6, 11, 5, 0, 5, 1, 9, 3, 5, 5, 4,
        2, 10, 7, 6, 3, 9, 8, 6, 0, 10, 3, 8, 10, 2, 6, 4, 1, 5, 10, 9,
        7, 8, 10, 7
    ]),
    "n16-uniform1024-lat2-link_down": (36720, 313600, 1225, 1183, 0, [
        79, 68, 69, 74, 73, 78, 83, 78, 76, 88, 67, 88, 84, 68, 79, 73
    ]),
    "n16-imix_onoff-lat2": (34730, 78544, 983, 614, 0, [
        56, 59, 56, 60, 59, 54, 67, 58, 69, 71, 56, 66, 67, 57, 67, 61
    ]),
    "n16-bernoulli-lat2": (36718, 251392, 982, 670, 0, [
        59, 58, 52, 59, 57, 53, 65, 63, 64, 68, 55, 71, 64, 60, 72, 62
    ]),
}


def _pinned_counters(case):
    ports, traffic, latency, *fault = case.split("-")
    config = SimConfig(fidelity="space", ports=int(ports[1:]),
                       link_latency=int(latency[3:]), seed=1)
    workload = WorkloadSpec(quanta=120,
                            fault_plan=PIN_LINK_DOWN if fault else None,
                            **PIN_TRAFFIC[traffic])
    r = run_config(config, workload)
    return (r.cycles, r.delivered_words, r.delivered_packets,
            r.extra["blocked_events"], r.extra["idle_quanta"],
            list(r.per_port_packets))


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_matches_pinned_values(self, case):
        assert _pinned_counters(case) == PINNED[case]
