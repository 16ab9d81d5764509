"""Space-partitioned distributed fabric: token-window worker processes.

This module shards one fabric's topology in *space*.  A
:class:`~repro.core.spacetopo.SpaceTopology` (a Clos of k-port Rotating
Crossbar chips) is cut into ``P`` partitions of whole chips; each
process owns one partition and advances it locally for ``L`` quanta
(``L`` = the minimum latency of any inter-partition channel) before
exchanging one *window* of boundary traffic with its peers -- the
firesim token-queue discipline, where every boundary link carries a
link-latency window's worth of flit tokens per round instead of a
per-cycle handshake.

Why this is safe (the conservative-lookahead argument, DESIGN.md §13):
a fragment consumed during round ``r`` (quanta ``[rL, (r+1)L)``) arrives
at ``send_quantum + latency >= send_quantum + L``, so it was sent at a
quantum ``< rL`` -- i.e. during some round ``<= r - 1``, whose batches
the receiver holds before round ``r`` begins.  The (worker, round)
dependency graph is acyclic, so the protocol cannot deadlock, and no
worker ever needs a peer's *current* quantum.

Bit-identity with the serial reference is structural: both paths run the
same :class:`~repro.core.spacetopo.PartitionSim` stepper (serial = one
instance owning every chip, each chip allocating through the
process-wide compiled tables of
:func:`~repro.core.allocator.compiled_allocator`) and the same
associative :func:`~repro.core.spacetopo.merge_part_stats` fold;
property tests in ``tests/test_space_shard.py`` pin P ∈ {1, 2, 4, 5}
against serial across chip sizes and traffic families.

Workers are *one-shot*: :func:`run_space` forks one process for every
partition but the last for each run, hands it the :class:`SpaceSpec`,
the node blocks and the topology as process arguments, and joins every
one before it returns or raises.  The last partition holds the Clos's
egress chips, which only receive, so the coordinator steps it itself
through the same :func:`_simulate_partition` the workers run, and
services the workers' result pipes whenever it waits for a batch: P
partitions run on P processes.  Boundary batches travel over one
simplex pipe per partition pair that shares a boundary channel (the
Clos feeds forward, so P = 2 needs one), pickled explicitly so the
bytes moved are counted.  A partition that finished its window blocks
only on the specific peers feeding it.  Every partition advances
exactly one window per round and ships one batch per out-peer per
round -- firesim's per-link token discipline.  A worker's live
telemetry snaps and its result come back over its own simplex result
pipe.  Each worker holds only its own pipe ends, so a dead worker's
pipes close everywhere and its peers and the coordinator fail with an
error instead of waiting on it.

``partitions=0`` in the engine/CLI layer picks P adaptively
(:func:`auto_partitions`: ``min(middle-stage chips, cpu_count)``).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config import CostModel
from repro.core.allocator import compiled_allocator
from repro.core.fabricsim import FabricStats
from repro.core.spacetopo import (
    PartitionSim,
    SpaceTopology,
    clos_topology,
    merge_part_stats,
)
from repro.faults.plan import FaultPlan
from repro.telemetry import runtime as _telemetry


def _default_source() -> Tuple[Tuple[str, Any], ...]:
    """:attr:`SpaceSpec.source`'s default: a saturated 1,024 B shift-2
    permutation."""
    from repro.traffic.build import shard_source
    from repro.traffic.spec import spec_from_legacy

    return SpaceSpec.pack_source(
        shard_source(spec_from_legacy("permutation", 1024, shift=2))
    )


@dataclass(frozen=True)
class SpaceSpec:
    """A picklable description of one space-partitionable fabric run.

    ``k`` is the chip port count: the Clos has ``k * k`` external ports
    on ``3k`` chips, so at most ``3k`` partitions.  ``latency`` is the
    uniform inter-chip channel latency in quanta and therefore the token
    window.  ``source`` is a declarative workload, ``{"kind": "traffic",
    "json": <TrafficSpec.to_json()>, "seed": s}`` packed by
    :meth:`pack_source` (:func:`repro.traffic.build.shard_source` writes
    it), always instantiated counter-based so per-port draws are
    partition-independent.  The default is a saturated 1,024 B shift-2
    permutation.
    """

    k: int = 4
    latency: int = 4
    partitions: int = 3
    costs: CostModel = field(default_factory=CostModel.default)
    source: Tuple[Tuple[str, Any], ...] = field(
        default_factory=_default_source
    )
    quanta: int = 2000
    warmup_quanta: int = 200
    fault_plan: Optional[FaultPlan] = None  #: intra-partition link faults

    def __post_init__(self):
        if self.latency < 1:
            raise ValueError("channel latency must be >= 1 quantum")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.partitions > 3 * self.k:
            # Refused here, before any worker process starts.
            raise ValueError(
                f"{self.partitions} partitions over {3 * self.k} chips "
                "leaves empty workers; lower --partitions"
            )
        if self.warmup_quanta < 0 or self.quanta < 1:
            raise ValueError("need quanta >= 1 and warmup_quanta >= 0")

    @property
    def num_ports(self) -> int:
        return self.k * self.k

    def source_dict(self) -> Dict[str, Any]:
        return dict(self.source)

    @staticmethod
    def pack_source(source: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
        """Dict -> hashable/picklable tuple form for the frozen spec."""
        return tuple(sorted(source.items()))

    def topology(self) -> SpaceTopology:
        return clos_topology(self.k, latency=self.latency)


@dataclass
class SpaceRunInfo:
    """How a space-partitioned run was actually executed, including the
    per-worker window/stall/boundary counters surfaced in
    ``RunResult.extra`` and ``Telemetry.summary()``."""

    partitions: int
    workers: int
    window: int
    rounds: int
    node_blocks: List[List[int]]
    windows_per_worker: List[int]
    pipe_stall_s: List[float]
    boundary_flits: List[int]
    serial_fallback: bool = False
    fallback_reason: str = ""
    bytes_moved: List[int] = field(default_factory=list)
    partitions_auto: bool = False

    def extra_dict(self) -> Dict[str, Any]:
        """The JSON-safe form attached to ``RunResult.extra``."""
        return {
            "partitions": self.partitions,
            "workers": self.workers,
            "window": self.window,
            "rounds": self.rounds,
            "windows_per_worker": list(self.windows_per_worker),
            "pipe_stall_s": [round(s, 6) for s in self.pipe_stall_s],
            "boundary_flits": list(self.boundary_flits),
            "serial_fallback": self.serial_fallback,
            "fallback_reason": self.fallback_reason,
            "bytes_moved": list(self.bytes_moved),
            # Workers advance one window per round, so no round is ever
            # coalesced; the per-worker zeros keep the key for readers.
            "coalesced_rounds": [0] * len(self.windows_per_worker),
            "partitions_auto": self.partitions_auto,
        }


def make_space_source(spec: SpaceSpec):
    """Instantiate the declarative workload for ``spec.num_ports`` ports.

    The ``traffic`` kind draws per-port from independent counters, which
    is what lets a partition poll only its own external ports and still
    reproduce the serial draw sequence exactly.
    """
    src = spec.source_dict()
    kind = src["kind"]
    if kind != "traffic":
        raise ValueError(f"unknown space source kind {kind!r}")
    from repro.traffic.build import fabric_source_for_shard

    return fabric_source_for_shard(
        src, ports=spec.num_ports, costs=spec.costs
    )


def build_partition(spec: SpaceSpec, topo: SpaceTopology, node_ids) -> PartitionSim:
    return PartitionSim(
        topo, node_ids, costs=spec.costs, fault_plan=spec.fault_plan
    )


def auto_partitions(topo: SpaceTopology) -> int:
    """The adaptive partition-count heuristic: as many workers as the
    topology's natural cut width supports, bounded by the cores actually
    available -- ``min(middle-stage chips, cpu_count)`` for a Clos.
    Returns 1 on single-core boxes (the silent serial fallback)."""
    import os as _os

    cpus = _os.cpu_count() or 1
    return max(1, min(topo.preferred_partitions, cpus))


def run_space_serial(spec: SpaceSpec) -> FabricStats:
    """The single-process reference: one :class:`PartitionSim` owning
    every chip, stepped over the whole timeline."""
    topo = spec.topology()
    sim = build_partition(spec, topo, range(topo.num_nodes))
    source = make_space_source(spec)
    sim.advance(source, 0, spec.warmup_quanta + spec.quanta, spec.warmup_quanta)
    if sim.outgoing:
        raise AssertionError("serial partition produced boundary traffic")
    return merge_part_stats([sim.stats], topo.num_ports, spec.costs)


# ---------------------------------------------------------------------------
# The worker side: one process per partition, one run per process.
# ---------------------------------------------------------------------------
def _simulate_partition(
    spec: SpaceSpec,
    part_id: int,
    blocks: List[List[int]],
    recv_fns: Dict[int, Any],
    send_fns: Dict[int, Any],
    tel_cfg: Optional[Dict[str, Any]] = None,
    snap_fn=None,
    topo: Optional[SpaceTopology] = None,
) -> Tuple:
    """Run one partition's token-window rounds.

    ``recv_fns[peer]()`` blocks until that peer's next batch arrives;
    ``send_fns[peer](batch)`` ships one.  Returns ``(PartStats, windows,
    pipe-stall seconds, boundary flits sent)`` -- plus the worker-local
    telemetry state when ``tel_cfg`` asked for recording.  The same
    function drives the pipe workers, the coordinator's own partition
    and the in-process harness the tests use, which fakes both
    callables.  ``topo`` is ``spec.topology()`` when the caller already
    built it.

    ``tel_cfg`` (from :meth:`Telemetry.config` plus ``port_classes``)
    installs a fresh *worker-local* recorder for the duration: journeys
    use shared-key mode so partial cross-partition entries fold on the
    coordinator, and per-worker gauges/snapshots describe this
    partition.  ``snap_fn(state)``, when given, streams a full
    point-in-time state every few rounds (each snap *replaces* the
    worker's previous one -- consumers keep the latest per worker).
    """
    if topo is None:
        topo = spec.topology()
    owner = topo.node_owner(blocks)
    prev_recorder = _telemetry.RECORDER
    tel = None
    if tel_cfg is not None:
        tel = _telemetry.Telemetry(
            capacity=tel_cfg.get("capacity", 65536),
            snapshot_interval=tel_cfg.get("snapshot_interval", 0),
            detail_limit=tel_cfg.get("detail_limit", 64),
        )
        tel.journeys.share_keys()
        if tel_cfg.get("port_classes"):
            tel.journeys.set_port_classes(tel_cfg["port_classes"])
        _telemetry.RECORDER = tel
    try:
        return _run_partition_rounds(
            spec, part_id, blocks, recv_fns, send_fns, topo, owner, tel,
            snap_fn,
        )
    finally:
        _telemetry.RECORDER = prev_recorder


def _run_partition_rounds(
    spec: SpaceSpec,
    part_id: int,
    blocks: List[List[int]],
    recv_fns: Dict[int, Any],
    send_fns: Dict[int, Any],
    topo: SpaceTopology,
    owner: Dict[int, int],
    tel,
    snap_fn,
) -> Tuple:
    sim = build_partition(spec, topo, blocks[part_id])
    source = make_space_source(spec)
    if tel is not None:
        reg = tel.registry
        reg.gauge("space.delivered_words",
                  lambda: sim.stats.delivered_words)
        reg.gauge("space.delivered_packets",
                  lambda: sim.stats.delivered_packets)
        reg.gauge("space.blocked_events",
                  lambda: sim.stats.blocked_events)
    window = min(topo.window(blocks), spec.warmup_quanta + spec.quanta)
    in_peers = sorted(
        {
            owner[ch.src_node]
            for ch in topo.channels
            if owner[ch.dst_node] == part_id and owner[ch.src_node] != part_id
        }
    )
    out_peers = sorted(
        {
            owner[ch.dst_node]
            for ch in topo.channels
            if owner[ch.src_node] == part_id and owner[ch.dst_node] != part_id
        }
    )
    total = spec.warmup_quanta + spec.quanta
    rounds = -(-total // window)
    # Stream at most ~16 live snaps per run so snap traffic stays small
    # relative to the boundary batches.
    snap_every = max(1, rounds // 16) if snap_fn is not None else 0
    stall = 0.0
    flits_sent = 0
    q = 0
    for r in range(rounds):
        if r > 0:
            # Collect every in-peer's round r-1 window in peer order;
            # inject() files each fragment in send order under its
            # arrival quantum, so arrival order at each input leg
            # matches the serial run.
            for peer in in_peers:
                t0 = time.perf_counter()
                batch = recv_fns[peer]()
                stall += time.perf_counter() - t0
                for cid, send_q, frag in batch:
                    sim.inject(cid, send_q, frag)
        count = min(window, total - q)
        sim.advance(source, q, count, spec.warmup_quanta)
        q += count
        if tel is not None:
            tel.registry.maybe_snapshot(q)
        if snap_every and (r + 1) % snap_every == 0 and r < rounds - 1:
            snap_fn(tel.to_state(worker=part_id,
                                 meta={"partition": part_id, "round": r + 1}))
        # Ship this round's boundary sends as one batch per out-peer
        # (empty batches included -- the receiver counts arrivals, not
        # contents, to know a window is complete).  The final round
        # drains but never ships: no round follows it.
        out = sim.drain_outgoing()
        flits_sent += len(out)
        if r < rounds - 1:
            batches: Dict[int, List[Tuple[int, int, Any]]] = {
                peer: [] for peer in out_peers
            }
            for cid, send_q, frag in out:
                batches[owner[topo.channels[cid].dst_node]].append(
                    (cid, send_q, frag)
                )
            for peer in out_peers:
                send_fns[peer](batches[peer])
    if tel is None:
        return sim.stats, rounds, stall, flits_sent
    tel.registry.snapshot(q)
    state = tel.to_state(worker=part_id,
                         meta={"partition": part_id, "rounds": rounds,
                               "chips": len(blocks[part_id])})
    return sim.stats, rounds, stall, flits_sent, state


def _space_worker(spec, topo, part_id, blocks, tel_cfg, recv_conns,
                  send_conns, result_conn, run_ends):
    """One partition's process: run its rounds once and report over
    ``result_conn`` -- live telemetry snaps as ``("snap", part_id,
    state)`` messages ahead of the terminal ``("ok", result,
    bytes_sent)`` or ``("err", msg, traceback)``.  ``recv_conns`` /
    ``send_conns`` map each peer to this worker's end of the data pipe
    from / to it."""
    # A forked worker inherits every pipe end the run made.  Holding a
    # peer's ends would keep them open after that peer died, so nobody
    # would ever see its EOF or EPIPE: keep only this worker's own.
    own = [result_conn, *recv_conns.values(), *send_conns.values()]
    for end in run_ends:
        if end not in own:
            end.close()
    # The fork start method hands children the parent's recorder;
    # tel_cfg installs a worker-local one (or none) instead.
    _telemetry.RECORDER = None
    sent = [0]

    def make_send(conn):
        def _send(batch):
            payload = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
            sent[0] += len(payload)
            conn.send_bytes(payload)

        return _send

    def make_recv(conn):
        return lambda: pickle.loads(conn.recv_bytes())

    snap_fn = None
    if tel_cfg is not None and tel_cfg.get("stream_snaps"):
        def snap_fn(state):
            result_conn.send(("snap", part_id, state))
    try:
        result = _simulate_partition(
            spec, part_id, blocks,
            {p: make_recv(c) for p, c in recv_conns.items()},
            {p: make_send(c) for p, c in send_conns.items()},
            tel_cfg=tel_cfg, snap_fn=snap_fn, topo=topo,
        )
        result_conn.send(("ok", result, sent[0]))
    except Exception as exc:  # surfaced in the parent
        import traceback

        result_conn.send(("err", f"{type(exc).__name__}: {exc}",
                          traceback.format_exc()))


def _run_workers(
    spec: SpaceSpec,
    tel_cfg: Optional[Dict[str, Any]],
    on_snapshot,
) -> Tuple[FabricStats, SpaceRunInfo]:
    """Fork a worker for every partition but the last, step the last
    one here, gather the workers' results and join them.

    Data pipes are wired only between partitions that share a boundary
    channel; each worker also gets one simplex result pipe, which this
    process reads whenever its own partition waits for a batch.  A
    partition that raises or a worker that dies fails the run with a
    ``RuntimeError`` naming the partition (an exception's traceback
    included), once every worker has reported or died too.
    """
    import multiprocessing as mp
    import traceback
    from multiprocessing.connection import wait as _conn_wait

    ctx = mp.get_context()
    topo = spec.topology()
    # Built here, before the fork, so no worker builds them again.
    compiled_allocator(topo.k)
    blocks = topo.partition(spec.partitions)
    owner = topo.node_owner(blocks)
    parts = range(len(blocks))
    # The last block holds the egress chips and only receives: stepping
    # it here never blocks on a send, and each wait for a batch also
    # reads the workers' result pipes, so no worker blocks on this one.
    own = parts[-1]
    # data[src, dst] = (dst's receiving end, src's sending end)
    data = {
        pair: ctx.Pipe(duplex=False)
        for pair in sorted({(owner[ch.src_node], owner[ch.dst_node])
                            for ch in topo.boundary_channels(blocks)})
    }
    # result_pipes[p] = (the coordinator's receiving end, p's sending end)
    result_pipes = [ctx.Pipe(duplex=False) for _ in parts[:-1]]
    run_ends = [end for pair in (*data.values(), *result_pipes) for end in pair]
    pending = {result_pipes[p][0]: p for p in parts[:-1]}
    own_recv = {src: ends[0] for (src, dst), ends in data.items() if dst == own}
    kept = [*pending, *own_recv.values()]
    procs: List[Any] = []
    errors: List[str] = []
    tracebacks: List[str] = []
    results: Dict[int, Tuple] = {}
    bytes_sent: Dict[int, int] = {own: 0}
    collector_failed: List[BaseException] = []

    def collect(part_id, state):
        try:
            on_snapshot(part_id, state)
        except BaseException as exc:
            collector_failed.append(exc)
            raise

    def service(conns):
        """Take one message from each ready result pipe."""
        for conn in conns:
            p = pending[conn]
            try:
                msg = conn.recv()
            except EOFError:
                errors.append(f"partition {p}: worker died")
                del pending[conn]
                continue
            if msg[0] == "snap":
                if on_snapshot is not None:
                    collect(msg[1], msg[2])
                continue
            del pending[conn]
            if msg[0] != "ok":
                errors.append(f"partition {p}: {msg[1]}")
                tracebacks.append(f"partition {p}:\n{msg[2]}")
            else:
                results[p] = msg[1]
                bytes_sent[p] = msg[2]

    def make_recv(conn):
        def _recv():
            while True:
                ready = _conn_wait([conn, *pending])
                service([c for c in ready if c is not conn])
                if conn in ready:
                    return pickle.loads(conn.recv_bytes())

        return _recv

    snap_fn = None
    if tel_cfg is not None and tel_cfg.get("stream_snaps"):
        def snap_fn(state):
            collect(own, state)

    try:
        for p in parts[:-1]:
            proc = ctx.Process(
                target=_space_worker,
                name=f"space-partition-{p}",
                args=(
                    spec, topo, p, blocks, tel_cfg,
                    {src: ends[0] for (src, dst), ends in data.items()
                     if dst == p},
                    {dst: ends[1] for (src, dst), ends in data.items()
                     if src == p},
                    result_pipes[p][1], run_ends,
                ),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        # The workers hold their own ends now; keeping only the result
        # ends and this partition's own here lets a worker's exit close
        # its pipes everywhere.
        for end in run_ends:
            if end not in kept:
                end.close()
        try:
            results[own] = _simulate_partition(
                spec, own, blocks,
                {p: make_recv(c) for p, c in own_recv.items()}, {},
                tel_cfg=tel_cfg, snap_fn=snap_fn, topo=topo,
            )
        except Exception as exc:
            if collector_failed:
                raise
            errors.append(f"partition {own}: {type(exc).__name__}: {exc}")
            tracebacks.append(f"partition {own}:\n{traceback.format_exc()}")
        # A peer still sending to a partition that failed gets a broken
        # pipe instead of blocking on a full one.
        for end in own_recv.values():
            end.close()
        while pending:
            service(_conn_wait(list(pending)))
    finally:
        for proc in procs:
            if pending:  # leaving early: nothing else would end it
                proc.kill()
            proc.join()
            proc.close()  # its sentinel pipe, not left to the collector
        for end in run_ends:
            end.close()
    if errors:
        raise RuntimeError(
            "space workers failed: " + "; ".join(errors) + "\n\n"
            + "\n".join(tracebacks)
        )
    ordered = [results[p] for p in parts]
    if tel_cfg is not None and _telemetry.RECORDER is not None:
        for r in ordered:
            _telemetry.RECORDER.merge_state(r[4])
    stats = merge_part_stats(
        [r[0] for r in ordered], topo.num_ports, spec.costs
    )
    rounds_seen = [r[1] for r in ordered]
    info = SpaceRunInfo(
        partitions=spec.partitions,
        workers=spec.partitions,
        window=min(topo.window(blocks), spec.warmup_quanta + spec.quanta),
        rounds=max(rounds_seen),
        node_blocks=blocks,
        windows_per_worker=rounds_seen,
        pipe_stall_s=[r[2] for r in ordered],
        boundary_flits=[r[3] for r in ordered],
        bytes_moved=[bytes_sent[p] for p in parts],
    )
    return stats, info


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------
def run_space(
    spec: SpaceSpec,
    on_snapshot=None,
) -> Tuple[FabricStats, SpaceRunInfo]:
    """Run ``spec`` space-partitioned; bit-identical to
    :func:`run_space_serial`.

    An active telemetry recorder is honored on *both* paths: each worker
    records into a local recorder whose state ships back over its
    result pipe and folds into the coordinator's, so a distributed run
    under telemetry is indistinguishable from a single-process one
    (journeys use shared-key tags, so even packets crossing partitions
    stitch back together).  Only ``partitions == 1`` stays in-process --
    silently, because one partition *is* a single-process run.
    ``on_snapshot(part_id, state)`` streams live mid-run worker states
    (distributed runs only; each snap replaces the worker's previous
    one).  Every worker process has exited when this returns or raises.
    """
    tel = _telemetry.RECORDER
    if spec.partitions == 1:
        if tel is not None:
            tel.journeys.share_keys()
        stats = run_space_serial(spec)
        topo = spec.topology()
        blocks = topo.partition(1)
        info = SpaceRunInfo(
            partitions=spec.partitions,
            workers=1,
            window=min(topo.window(blocks), spec.warmup_quanta + spec.quanta),
            rounds=1,
            node_blocks=blocks,
            windows_per_worker=[1],
            pipe_stall_s=[0.0],
            boundary_flits=[0],
            serial_fallback=True,
            fallback_reason="partitions=1",
            bytes_moved=[0],
        )
        if tel is not None:
            tel.journeys.finalize()
        _register_gauges(info)
        return stats, info
    tel_cfg = None
    if tel is not None:
        tel_cfg = dict(tel.config())
        if tel.journeys.port_classes:
            tel_cfg["port_classes"] = list(tel.journeys.port_classes)
        if on_snapshot is not None:
            tel_cfg["stream_snaps"] = True
    stats, info = _run_workers(spec, tel_cfg, on_snapshot)
    if tel is not None:
        # Every worker state is folded in; convert the partial
        # cross-partition journey entries into final histograms.
        tel.journeys.finalize()
    _register_gauges(info)
    return stats, info


def _register_gauges(info: SpaceRunInfo) -> None:
    """Publish the distributed-run counters to an active recorder.
    ``pipe_stall_s`` is wall-clock and therefore volatile: it stays out
    of snapshots and exported JSON, which must be deterministic."""
    tel = _telemetry.RECORDER
    if tel is None:
        return
    reg = tel.registry
    reg.set_gauge("space.windows", sum(info.windows_per_worker))
    reg.set_gauge("space.pipe_stall_s", round(sum(info.pipe_stall_s), 6),
                  volatile=True)
    reg.set_gauge("space.boundary_flits", sum(info.boundary_flits))
    reg.set_gauge("space.partitions", info.partitions)
    reg.set_gauge("space.serial_fallback", info.serial_fallback)
    reg.set_gauge("space.bytes_moved", sum(info.bytes_moved))
