"""Pipe-transport invariants of the space-partitioned fabric.

The contract under test (DESIGN.md §15): the pipe workers move the
token-window protocol bit-identically to the single-process reference
at every partition count; a worker that dies fails the run loudly,
naming its partition, instead of hanging it, and no worker process
outlives the run; an impossible partition count is refused before any
process starts; the removed transport knobs stay removed; and the
fault guard admits exactly the plans the engine can realize.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.config import SimConfig
from repro.core.spacetopo import clos_topology
from repro.engines import WorkloadSpec, run_config
from repro.faults import FaultEvent, FaultPlan
from repro.parallel import SpaceSpec, auto_partitions, run_space, run_space_serial
from repro.sweep import build_cell
from repro.telemetry import runtime
from repro.traffic.build import shard_source
from repro.traffic.spec import TrafficSpec, spec_from_legacy


#: Every pipe end a run opens must be closed, not left to the collector.
pytestmark = pytest.mark.usefixtures("no_leaked_connections")


def _result_key(res):
    return (res.cycles, res.delivered_packets, res.delivered_words,
            tuple(res.per_port_packets))


def spec_for(partitions: int, k: int = 4, quanta: int = 120,
             warmup: int = 20, **kw) -> SpaceSpec:
    return SpaceSpec(
        k=k,
        latency=2,
        partitions=partitions,
        source=SpaceSpec.pack_source(shard_source(
            spec_from_legacy(pattern="permutation", packet_bytes=192, shift=5)
        )),
        quanta=quanta,
        warmup_quanta=warmup,
        **kw,
    )


# ---------------------------------------------------------------------------
# Pipe workers == serial.
# ---------------------------------------------------------------------------
class TestBackendIdentity:
    @pytest.mark.parametrize("partitions", [1, 2, 4, 8],
                             ids=lambda p: f"{p}-pipe")
    def test_backend_matches_serial(self, partitions):
        spec = spec_for(partitions)
        ref = run_space_serial(spec)
        got, info = run_space(spec)
        assert multiprocessing.active_children() == []
        assert ref.counters() == got.counters()
        if partitions > 1:
            assert not info.serial_fallback
            assert sum(info.bytes_moved) > 0

    def test_transport_options_removed(self):
        with pytest.raises(TypeError):
            SimConfig(transport="pipe")
        with pytest.raises(TypeError):
            run_space(spec_for(2), transport="pipe")
        with pytest.raises(TypeError):
            run_space(spec_for(2), pool=None)
        with pytest.raises(TypeError):
            SpaceSpec(geometry="torus")
        with pytest.raises(ValueError, match="transport"):
            build_cell({"transport": "pipe"})


# ---------------------------------------------------------------------------
# A dead worker fails the run, bounded, and leaves no process behind.
# ---------------------------------------------------------------------------
#: Seconds a dead-worker test waits for the coordinator's error.  A run
#: that blocks instead fails the test at this bound rather than hanging.
DEAD_WORKER_BOUND_S = 20.0


def _long_run_spec() -> SpaceSpec:
    """A 64-port P=3 run that takes seconds, so a kill lands mid-run.
    Partitions 0 and 1 run in worker processes; the coordinator steps
    partition 2."""
    return SpaceSpec(
        k=8, latency=4, partitions=3, quanta=20_000, warmup_quanta=50,
        source=SpaceSpec.pack_source(shard_source(
            spec_from_legacy(pattern="uniform", packet_bytes=1024), seed=3
        )),
    )


def _start_run(spec: SpaceSpec, on_snapshot=None):
    """``run_space(spec, on_snapshot)`` on a thread, under telemetry
    when ``on_snapshot`` is given: ``(thread, outcome)``, where
    ``outcome`` gets the ``"result"`` or the ``"error"``."""
    outcome = {}

    def run():
        try:
            if on_snapshot is None:
                outcome["result"] = run_space(spec)
            else:
                with runtime.capture():
                    outcome["result"] = run_space(spec, on_snapshot=on_snapshot)
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def _kill_leftover_workers():
    """Kill and reap any worker a failed assertion left running."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join(DEAD_WORKER_BOUND_S)


class TestDeadWorker:
    @pytest.mark.parametrize("victim", [0, 1], ids=["0-mid_run", "1-mid_run"])
    def test_dead_worker_fails_the_run_naming_it(self, victim):
        thread, outcome = _start_run(_long_run_spec())
        name = f"space-partition-{victim}"
        try:
            deadline = time.monotonic() + DEAD_WORKER_BOUND_S
            proc = None
            while proc is None and time.monotonic() < deadline:
                proc = next((child for child in multiprocessing.active_children()
                             if child.name == name), None)
            assert proc is not None, f"no worker named {name} started"
            time.sleep(0.3)
            assert thread.is_alive(), "the run finished before the kill"
            proc.kill()
            thread.join(DEAD_WORKER_BOUND_S)
            assert not thread.is_alive(), (
                f"run still blocked {DEAD_WORKER_BOUND_S:.0f} s after "
                f"worker {victim} died"
            )
            err = outcome["error"]
            assert isinstance(err, RuntimeError)
            assert f"partition {victim}: worker died" in str(err)
            assert multiprocessing.active_children() == []
        finally:
            _kill_leftover_workers()

    def test_coordinator_error_kills_the_workers(self):
        # A live-snapshot callback that raises ends the run with its own
        # error at the first snap; the workers still running are killed,
        # not waited on.
        def broken_collector(part_id, state):
            raise KeyError("collector failed")

        thread, outcome = _start_run(_long_run_spec(), broken_collector)
        try:
            thread.join(DEAD_WORKER_BOUND_S)
            assert not thread.is_alive(), (
                f"run still blocked {DEAD_WORKER_BOUND_S:.0f} s after its "
                "snapshot callback raised"
            )
            assert isinstance(outcome["error"], KeyError)
            assert multiprocessing.active_children() == []
        finally:
            _kill_leftover_workers()

    def test_worker_error_mid_run_fails_the_run(self, tmp_path):
        # At P=3 on k=4 only partition 0 (the ingress chips) reads the
        # trace, so only it meets the malformed last record; its peers
        # are left waiting on batches it will never send.
        trace = tmp_path / "bad.csv"
        rows = ["src,dst,bytes,count"]
        rows += [f"{i % 16},{(5 * i) % 16},1024,4" for i in range(400)]
        trace.write_text("\n".join(rows + ["3,5,banana,2"]) + "\n")
        spec = SpaceSpec(
            k=4, latency=2, partitions=3, quanta=4_000, warmup_quanta=10,
            source=SpaceSpec.pack_source(
                shard_source(TrafficSpec(kind="replay", trace=str(trace)))
            ),
        )
        with pytest.raises(ValueError, match="malformed"):
            run_space_serial(spec)
        thread, outcome = _start_run(spec)
        try:
            thread.join(DEAD_WORKER_BOUND_S)
            assert not thread.is_alive(), (
                f"run still blocked {DEAD_WORKER_BOUND_S:.0f} s after "
                "partition 0 raised"
            )
            assert "partition 0: ValueError" in str(outcome["error"])
            assert multiprocessing.active_children() == []
        finally:
            _kill_leftover_workers()

    def test_pipe_ends_closed_before_it_raises(self):
        # run_space closes every pipe end it holds -- the workers' result
        # ends and its own partition's receiving ends -- itself, so none
        # stays open while the error's traceback keeps its frame alive.
        spec = SpaceSpec(k=4, latency=2, partitions=3, quanta=40,
                         warmup_quanta=0,
                         source=SpaceSpec.pack_source({"kind": "zipf"}))
        before = len(os.listdir("/dev/fd"))
        with pytest.raises(RuntimeError, match="zipf") as err:
            run_space(spec)
        assert err.value.__traceback__ is not None
        assert len(os.listdir("/dev/fd")) == before


# ---------------------------------------------------------------------------
# Partition counts: adaptive, and refused before any worker starts.
# ---------------------------------------------------------------------------
class TestAutoPartitions:
    def test_bounded_by_preference_and_cores(self, monkeypatch):
        import os

        topo = clos_topology(8)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert auto_partitions(topo) == topo.preferred_partitions == 8
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert auto_partitions(topo) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert auto_partitions(topo) == 1

    def test_engine_partitions_zero_is_auto(self):
        cfg = SimConfig(ports=16, fidelity="space", partitions=0)
        res = run_config(cfg, WorkloadSpec(quanta=60))
        sp = res.extra["space_shard"]
        assert sp["partitions_auto"] is True
        assert sp["partitions"] >= 1
        ref = run_config(
            SimConfig(ports=16, fidelity="space", partitions=1),
            WorkloadSpec(quanta=60),
        )
        assert _result_key(res) == _result_key(ref)

    def test_negative_partitions_rejected(self):
        with pytest.raises(ValueError, match="partitions"):
            SimConfig(partitions=-1)

    def test_impossible_count_starts_no_process(self, monkeypatch):
        # 7 partitions over the 6 chips of a k=2 Clos would leave a
        # worker empty: refused before any process is started.
        started = []
        start = multiprocessing.process.BaseProcess.start

        def recording_start(proc):
            started.append(proc.name)
            start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            recording_start)
        with pytest.raises(ValueError, match="7 partitions over 6 chips"):
            run_space(SpaceSpec(k=2, partitions=7))
        assert started == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("partitions", [2, 3])
    def test_coordinator_steps_the_last_partition(self, monkeypatch,
                                                  partitions):
        # P partitions run on P processes: the coordinator forks a
        # worker for every partition but the last and steps that one.
        started = []
        start = multiprocessing.process.BaseProcess.start

        def recording_start(proc):
            started.append(proc.name)
            start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            recording_start)
        spec = spec_for(partitions)
        got, info = run_space(spec)
        assert started == [f"space-partition-{p}"
                           for p in range(partitions - 1)]
        assert multiprocessing.active_children() == []
        assert info.workers == partitions
        assert got.counters() == run_space_serial(spec).counters()


# ---------------------------------------------------------------------------
# Fault-plan guard.
# ---------------------------------------------------------------------------
def _channel_for(owner_equal: bool, partitions: int):
    """A clos k=4 channel whose endpoints share (or straddle) partition
    blocks at the given partition count."""
    topo = clos_topology(4)
    owner = topo.node_owner(topo.partition(partitions))
    for ch in topo.channels:
        if (owner[ch.src_node] == owner[ch.dst_node]) == owner_equal:
            return ch
    raise AssertionError("no such channel")


class TestFaultGuard:
    def test_intra_partition_link_fault_is_realized(self):
        ch = _channel_for(owner_equal=True, partitions=2)
        plan = FaultPlan(events=(
            FaultEvent(cycle=30, kind="link_down",
                       target=f"link:{ch.cid}", duration=40),
        ))
        wl = WorkloadSpec(quanta=160, fault_plan=plan)
        clean = run_config(
            SimConfig(ports=16, fidelity="space", partitions=2),
            WorkloadSpec(quanta=160),
        )
        faulted = run_config(
            SimConfig(ports=16, fidelity="space", partitions=2), wl
        )
        serial = run_config(
            SimConfig(ports=16, fidelity="space", partitions=1), wl
        )
        # The fault perturbs the run, and the distributed realization is
        # bit-identical to the serial one.
        assert _result_key(faulted) != _result_key(clean)
        assert _result_key(faulted) == _result_key(serial)

    def test_cross_partition_link_fault_refused_loudly(self):
        ch = _channel_for(owner_equal=False, partitions=2)
        wl = WorkloadSpec(quanta=60, fault_plan=FaultPlan(events=(
            FaultEvent(cycle=10, kind="link_down",
                       target=f"link:{ch.cid}", duration=20),
        )))
        with pytest.raises(ValueError, match="cross-partition"):
            run_config(
                SimConfig(ports=16, fidelity="space", partitions=2), wl
            )

    def test_unsupported_fault_kind_refused(self):
        wl = WorkloadSpec(quanta=60, fault_plan=FaultPlan(events=(
            FaultEvent(cycle=10, kind="token_loss"),
        )))
        with pytest.raises(ValueError, match="cannot realize"):
            run_config(
                SimConfig(ports=16, fidelity="space", partitions=2), wl
            )
