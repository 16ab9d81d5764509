"""Property tests for the distributed telemetry plane's merge algebra.

The coordinator folds worker recorder states in arrival order, workers
stream cumulative partial states mid-run, and ``repro top`` re-folds
the latest snapshot set every frame -- all of which is sound only if
``Telemetry.merge_state`` is associative and commutative over
distinct-worker states.  Hypothesis drives randomized recorder scripts
through every component (event ring, counters/histograms/snapshots,
journeys with port/class dimensions, kernel profile) and checks both
laws, then the end-to-end acceptance: a space-partitioned run under
telemetry is bit-identical across P in {1, 2, 4} and to the
telemetry-off serial reference.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import SpaceSpec, run_space, run_space_serial
from repro.telemetry import runtime
from repro.telemetry.events import N_KINDS
from repro.traffic.build import shard_source
from repro.traffic.spec import spec_from_legacy

# Deliberately tiny so merges exercise ring trimming and reservoir
# truncation, not just concatenation.
CAPACITY = 16
DETAIL_LIMIT = 4

COUNTER_NAMES = ("fabric.tokens_passed", "space.windows", "port.drops")
HIST_NAMES = ("queue_wait", "grant_gap")
SUBJECTS = ("port0", "port1", "fabric")
PORT_CLASSES = ("gold", "silver", "silver", "bronze")


@st.composite
def worker_activity(draw):
    """A deterministic script of recorder activity for one worker."""
    ops = []
    n = draw(st.integers(min_value=0, max_value=25))
    cycle = 0
    key = 0
    for _ in range(n):
        cycle += draw(st.integers(min_value=0, max_value=9))
        kind = draw(st.integers(min_value=0, max_value=4))
        if kind == 0:
            ops.append(("emit", cycle,
                        draw(st.integers(min_value=0, max_value=N_KINDS - 1)),
                        draw(st.sampled_from(SUBJECTS))))
        elif kind == 1:
            ops.append(("count", draw(st.sampled_from(COUNTER_NAMES)),
                        draw(st.integers(min_value=1, max_value=5))))
        elif kind == 2:
            ops.append(("hist", draw(st.sampled_from(HIST_NAMES)),
                        draw(st.integers(min_value=0, max_value=10_000))))
        elif kind == 3:
            ops.append(("kernel",
                        draw(st.integers(min_value=0, max_value=5)),
                        draw(st.integers(min_value=1, max_value=4)),
                        draw(st.integers(min_value=0, max_value=7))))
        else:
            ops.append(("journey", key,
                        draw(st.integers(min_value=0, max_value=3)),
                        cycle,
                        draw(st.integers(min_value=2, max_value=40)),
                        draw(st.sampled_from(("delivered", "dead_port")))))
            key += 1
    return ops


def apply_ops(ops, tel):
    """Replay one worker's script into a fresh local recorder."""
    tel.journeys.set_port_classes(PORT_CLASSES)
    for op in ops:
        if op[0] == "emit":
            _, cycle, kind, subject = op
            tel.events.emit(cycle, kind, subject)
            tel.registry.maybe_snapshot(cycle)
        elif op[0] == "count":
            tel.registry.count(op[1], op[2])
        elif op[0] == "hist":
            tel.registry.histogram(op[1]).record(op[2])
        elif op[0] == "kernel":
            _, idx, n, peak = op
            tel.kernel.cmd_counts[idx] += n
            tel.kernel.bucket_drains += 1
            tel.kernel.bucket_events += n
            if peak > tel.kernel.bucket_peak:
                tel.kernel.bucket_peak = peak
        else:
            _, key, src, cycle, dur, outcome = op
            j = tel.journeys
            j.arrive(key, src, cycle)
            j.lookup(key, (src + 1) % 4, 256, cycle + 1)
            j.enqueue(key, cycle + 1)
            j.hop(key, cycle + 1 + dur // 2)
            if outcome == "delivered":
                j.depart(key, cycle + 1 + dur)
            else:
                j.drop(key, outcome, cycle + 1 + dur)
    return tel


def build_states(scripts):
    """One shipped state per worker, with distinct worker ids."""
    states = []
    for w, ops in enumerate(scripts):
        tel = runtime.Telemetry(capacity=CAPACITY, snapshot_interval=32,
                                detail_limit=DETAIL_LIMIT)
        apply_ops(ops, tel)
        states.append(tel.to_state(worker=w, meta={"ops": len(ops)}))
    return states


def fold(states):
    """Fold shipped states into a fresh coordinator recorder."""
    tel = runtime.Telemetry(capacity=CAPACITY, detail_limit=DETAIL_LIMIT)
    for state in states:
        tel.merge_state(state)
    return tel


def fingerprint(tel, with_workers=True):
    """Canonical JSON over everything the merge is supposed to preserve."""
    tel.journeys.finalize()
    doc = {
        "summary": tel.summary(),
        "journeys": tel.journeys.to_dict(),
        "events": [list(e) for e in tel.events.events()],
        "events_dropped": tel.events.dropped,
    }
    if not with_workers:
        # Re-exported intermediate states keep component data but not the
        # coordinator's worker-provenance table.
        doc["summary"].pop("workers", None)
    return json.dumps(doc, sort_keys=True, default=repr)


class TestMergeAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(scripts=st.lists(worker_activity(), min_size=2, max_size=4),
           data=st.data())
    def test_merge_commutative(self, scripts, data):
        states = build_states(scripts)
        shuffled = data.draw(st.permutations(states))
        assert fingerprint(fold(states)) == fingerprint(fold(shuffled))

    @settings(max_examples=50, deadline=None)
    @given(scripts=st.lists(worker_activity(), min_size=3, max_size=3))
    def test_merge_associative(self, scripts):
        a, b, c = build_states(scripts)
        # (a + b) + c  vs  a + (b + c), with the parenthesized fold
        # shipped through to_state like a real intermediate aggregator.
        left = fold([fold([a, b]).to_state(), c])
        right = fold([a, fold([b, c]).to_state()])
        assert (fingerprint(left, with_workers=False)
                == fingerprint(right, with_workers=False))

    @settings(max_examples=50, deadline=None)
    @given(scripts=st.lists(worker_activity(), min_size=1, max_size=3))
    def test_merge_matches_single_recorder_totals(self, scripts):
        # Totals (not ring contents, which trim differently) must equal a
        # single recorder that saw every worker's samples.
        merged = fold(build_states(scripts))
        merged.journeys.finalize()
        one = runtime.Telemetry(capacity=CAPACITY, snapshot_interval=0,
                                detail_limit=DETAIL_LIMIT)
        for ops in scripts:
            apply_ops(ops, one)
        assert merged.events.emitted == one.events.emitted
        assert merged.events.kind_counts == one.events.kind_counts
        assert (merged.journeys.completed + merged.journeys.dropped
                == one.journeys.completed + one.journeys.dropped)
        for name in COUNTER_NAMES:
            assert (merged.registry.counter(name)
                    == one.registry.counter(name))
        for name in HIST_NAMES:
            assert (merged.registry.histogram(name).count
                    == one.registry.histogram(name).count)
        assert merged.kernel.cmd_counts == one.kernel.cmd_counts


SOURCES = {
    "permutation": shard_source(
        spec_from_legacy(pattern="permutation", packet_bytes=256, shift=3)
    ),
    "uniform": shard_source(
        spec_from_legacy(pattern="uniform", packet_bytes=192), seed=11
    ),
}


def space_spec(partitions, source_key, latency, quanta):
    return SpaceSpec(
        k=4,
        latency=latency,
        partitions=partitions,
        source=SpaceSpec.pack_source(SOURCES[source_key]),
        quanta=quanta,
        warmup_quanta=10,
    )


class TestSpacePartitionIdentity:
    @settings(max_examples=3, deadline=None)
    @given(source=st.sampled_from(sorted(SOURCES)),
           latency=st.integers(min_value=1, max_value=2),
           quanta=st.integers(min_value=80, max_value=120))
    def test_bit_identical_across_partitions(self, source, latency, quanta):
        """P in {1, 2, 4} under telemetry: same stats as the
        telemetry-off serial reference, same merged journey tables."""
        baseline = run_space_serial(
            space_spec(1, source, latency, quanta)
        ).counters()
        tables = {}
        for parts in (1, 2, 4):
            spec = space_spec(parts, source, latency, quanta)
            with runtime.capture() as tel:
                stats, info = run_space(spec)
            assert stats.counters() == baseline
            assert (info.serial_fallback
                    == (parts == 1)), info.fallback_reason
            tables[parts] = (
                {s: h.to_dict() for s, h in tel.journeys.stage_hist.items()},
                {k: h.to_dict() for k, h in tel.journeys.dim_hist.items()},
                [j.to_dict() for j in tel.journeys.detailed],
                (tel.journeys.completed, tel.journeys.dropped),
            )
        assert tables[1] == tables[2] == tables[4]
