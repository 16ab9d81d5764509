"""Space-partitionable fabric topology: chips, boundary channels, windows.

The thesis's scaling proposal (section 8.5) builds a larger router "out
of multiple 4-port crossbars".  This module is the repo's one model of
that composition -- a three-stage Clos of k-port Rotating Crossbars --
built as an explicitly *distributable* graph: no chip reads another
chip's state inside a quantum (no same-quantum back-pressure, no global
blocked reduction), so any set of chips can run in its own process:

* a :class:`ChipNode` is one k-port Rotating Crossbar (allocator, token,
  per-input-leg FIFOs) making **local-only** decisions;
* a :class:`Channel` is a directed point-to-point link between chip legs
  with a fixed ``latency`` measured in routing quanta -- a fragment sent
  at quantum ``t`` becomes visible to the receiving chip at ``t +
  latency``, never earlier;
* a :class:`SpaceTopology` is the wiring: nodes, channels, and the
  external input/output port maps.

Because every cross-chip dependency flows through a fixed-latency
channel, a set of chips can advance ``L`` quanta (``L`` = the minimum
latency of any channel entering the set) using only fragments that were
sent before the window began.  That is the classic conservative
lookahead of distributed switch simulators (firesim's token-queue
switches use exactly this window), and it is what
:mod:`repro.parallel.space_shard` exploits: workers own disjoint node
sets and exchange one *window* of channel traffic per round instead of
synchronizing every quantum.

:class:`PartitionSim` is the single stepper both execution modes share:
the serial reference runs one instance owning every node, the
distributed run gives each worker an instance owning its partition plus
:meth:`~PartitionSim.inject` / :meth:`~PartitionSim.drain_outgoing` for
the boundary traffic.  Bit-identity between the two is therefore
structural -- same chip code, same per-leg arrival order (each leg is
fed by one channel, in send order), same quantum arithmetic -- and is
property-tested across partition counts in ``tests/test_space_shard.py``.

Fragments are plain tuples ``(dest, words, is_last)`` so boundary
batches pickle cheaply over multiprocessing pipes.  Under an active
telemetry recorder a fourth element rides along -- a globally unique
journey tag minted at external admission (``admission_seq * num_ports +
port``, identical regardless of partitioning) -- so packet journeys
survive partition crossings: each partition records the marks it
witnesses into its local :class:`~repro.telemetry.journey.JourneyTracker`
(shared-key mode) and the coordinator folds the partial entries.  The
step code only ever indexes ``frag[0..2]``, so the extra element cannot
change simulation behavior, and with telemetry off fragments stay
3-tuples.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.config import CostModel
from repro.core.allocator import Allocator
from repro.core.phases import DEFAULT_TIMING, PhaseTiming, idle_quantum_cycles
from repro.core.ring import RingGeometry
from repro.core.token import RotatingToken
from repro.telemetry import runtime as _telemetry

#: A fragment crossing the space fabric: (global dest port, words, is_last)
#: plus an optional trailing journey tag when telemetry is recording.
SpaceFrag = Tuple[int, int, bool]


@dataclass(frozen=True)
class Channel:
    """A directed chip-to-chip link with fixed latency in quanta.

    ``latency >= 1`` is what makes the topology partitionable: a window
    of ``min latency`` quanta can be simulated without seeing the
    sender's current quantum.
    """

    cid: int
    src_node: int
    src_leg: int
    dst_node: int
    dst_leg: int
    latency: int

    def __post_init__(self):
        if self.latency < 1:
            raise ValueError("channel latency must be >= 1 quantum")


class SpaceTopology:
    """The partitionable fabric graph.

    ``k`` is the chip port count (each node is a k-port Rotating
    Crossbar ring); ``num_ports`` the external port count.  ``ext_in``
    maps a global input port to its (node, leg); ``ext_out`` maps an
    egress (node, leg) to its global output port.  :meth:`route` is the
    chip-local forwarding decision: which output leg a fragment for
    ``dest`` takes at ``node``.
    """

    def __init__(
        self,
        k: int,
        num_nodes: int,
        num_ports: int,
        channels: List[Channel],
        ext_in: Dict[int, Tuple[int, int]],
        ext_out: Dict[Tuple[int, int], int],
    ):
        self.k = k
        self.num_nodes = num_nodes
        self.num_ports = num_ports
        self.channels = channels
        self.ext_in = ext_in
        self.ext_out = ext_out
        #: (node, leg) -> outgoing channel; each leg has at most one.
        self.out_channel: Dict[Tuple[int, int], Channel] = {}
        for ch in channels:
            key = (ch.src_node, ch.src_leg)
            if key in self.out_channel:
                raise ValueError(f"duplicate out-channel at {key}")
            self.out_channel[key] = ch

    # -- forwarding -----------------------------------------------------
    def route(self, node: int, dest: int) -> int:
        """The output leg a fragment for global port ``dest`` takes at
        ``node``: spread by dest over middles, then by egress chip, then
        the local output leg."""
        k = self.k
        if node < k:  # ingress chip -> middle index
            return dest % k
        if node < 2 * k:  # middle chip -> egress chip index
            return dest // k
        return dest % k  # egress chip -> local output leg

    @property
    def preferred_partitions(self) -> int:
        """The topology's natural worker count before the CPU clamp: the
        middle-stage chip count (each stage block then holds whole
        chips)."""
        return self.k

    # -- partitioning ---------------------------------------------------
    def partition(self, parts: int) -> List[List[int]]:
        """Contiguous, balanced node blocks (the first ``num_nodes %
        parts`` blocks get one extra node).  ``parts`` is clamped to
        ``num_nodes``."""
        parts = max(1, min(parts, self.num_nodes))
        base, rem = divmod(self.num_nodes, parts)
        blocks: List[List[int]] = []
        start = 0
        for i in range(parts):
            size = base + (1 if i < rem else 0)
            blocks.append(list(range(start, start + size)))
            start += size
        return blocks

    def boundary_channels(self, blocks: List[List[int]]) -> List[Channel]:
        """Channels whose endpoints live in different blocks."""
        owner = self.node_owner(blocks)
        return [
            ch for ch in self.channels
            if owner[ch.src_node] != owner[ch.dst_node]
        ]

    def node_owner(self, blocks: List[List[int]]) -> Dict[int, int]:
        owner: Dict[int, int] = {}
        for part, nodes in enumerate(blocks):
            for nid in nodes:
                owner[nid] = part
        if len(owner) != self.num_nodes:
            raise ValueError("partition does not cover every node exactly once")
        return owner

    def window(self, blocks: List[List[int]]) -> int:
        """The safe lookahead: min latency over inter-partition channels
        (the whole horizon when nothing crosses a boundary)."""
        boundary = self.boundary_channels(blocks)
        if not boundary:
            return 1 << 30
        return min(ch.latency for ch in boundary)


def clos_topology(k: int, latency: int = 1) -> SpaceTopology:
    """A three-stage Clos of 3k k-port crossbar chips (k*k ports).

    Node ids: ingress ``0..k-1``, middle ``k..2k-1``, egress
    ``2k..3k-1``.  Global input ``g`` enters ingress chip ``g // k`` on
    leg ``g % k``; ingress chip ``i`` leg ``m`` feeds middle chip ``m``
    leg ``i``; middle chip ``m`` leg ``o`` feeds egress chip ``o`` leg
    ``m``; egress chip ``o`` leg ``l`` is global output ``o*k + l``.
    Every inter-chip channel carries the same ``latency``.
    """
    if k < 2:
        raise ValueError("crossbar chips need at least 2 ports")
    channels: List[Channel] = []
    for i in range(k):
        for m in range(k):
            channels.append(Channel(
                cid=len(channels), src_node=i, src_leg=m,
                dst_node=k + m, dst_leg=i, latency=latency,
            ))
    for m in range(k):
        for o in range(k):
            channels.append(Channel(
                cid=len(channels), src_node=k + m, src_leg=o,
                dst_node=2 * k + o, dst_leg=m, latency=latency,
            ))
    ext_in = {g: (g // k, g % k) for g in range(k * k)}
    ext_out = {(2 * k + o, l): o * k + l for o in range(k) for l in range(k)}
    return SpaceTopology(
        k=k, num_nodes=3 * k, num_ports=k * k,
        channels=channels, ext_in=ext_in, ext_out=ext_out,
    )


def link_fault_windows(
    plan, num_channels: int
) -> Dict[int, List[Tuple[int, int]]]:
    """Normalize a fault plan into per-channel down-windows.

    The space fabric realizes exactly one fault kind: ``link_down`` on a
    ``"link:<cid>"`` target, with ``cycle``/``duration`` read in
    *quanta*.  A downed channel holds traffic: any fragment whose
    arrival quantum lands inside ``[cycle, cycle + duration)`` is
    deferred to the window's end.  Deferral is monotone (earlier
    arrivals never land after later ones), so per-channel send order --
    the property bit-identity rests on -- survives.  Returns
    ``{cid: [(start, end), ...]}`` with overlaps merged; raises
    ``ValueError`` on any event the space fabric cannot realize.
    """
    windows: Dict[int, List[Tuple[int, int]]] = {}
    if not plan:
        return windows
    for ev in plan.events:
        if ev.kind != "link_down":
            raise ValueError(
                f"space fabric cannot realize fault kind {ev.kind!r}; "
                "only link_down on link:<cid> targets is supported"
            )
        if not ev.target.startswith("link:"):
            raise ValueError(
                f"space link faults need a link:<cid> target, got "
                f"{ev.target!r}"
            )
        try:
            cid = int(ev.target[5:])
        except ValueError:
            raise ValueError(
                f"space link faults need a link:<cid> target, got "
                f"{ev.target!r}"
            ) from None
        if not 0 <= cid < num_channels:
            raise ValueError(
                f"fault target channel {cid} out of range "
                f"(topology has {num_channels} channels)"
            )
        windows.setdefault(cid, []).append((ev.cycle, ev.end))
    for cid, ws in windows.items():
        ws.sort()
        merged = [ws[0]]
        for s, e in ws[1:]:
            if s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        windows[cid] = merged
    return windows


class ChipNode:
    """One k-port Rotating Crossbar chip with per-input-leg FIFOs.

    Queue entries are ``(frag, out_leg)`` -- the forwarding decision is
    made once at enqueue time (:meth:`SpaceTopology.route`).  The chip's
    quantum (requests from the queue heads, one allocation, pop the
    granted heads, rotate the token) runs inline in
    :meth:`PartitionSim.advance`.
    """

    __slots__ = ("nid", "k", "allocator", "token", "queues")

    def __init__(self, nid: int, k: int):
        self.nid = nid
        self.k = k
        self.allocator = Allocator(RingGeometry(k))
        self.token = RotatingToken(k)
        self.queues: List[Deque[Tuple[SpaceFrag, int]]] = [
            deque() for _ in range(k)
        ]


@dataclass
class PartStats:
    """One partition's accumulated counters: everything local plus the
    per-quantum body maxima that :func:`merge_part_stats` folds into the
    global clock.  Plain lists/ints, so worker results pickle cheaply.
    """

    num_ports: int
    delivered_words: int = 0
    delivered_packets: int = 0
    per_port_words: List[int] = field(default_factory=list)
    per_port_packets: List[int] = field(default_factory=list)
    blocked_events: int = 0
    #: max (words + expansion) over the partition's chips, one entry per
    #: *measured* quantum (0 = every owned chip idled that quantum).
    body_max: List[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.per_port_words:
            self.per_port_words = [0] * self.num_ports
        if not self.per_port_packets:
            self.per_port_packets = [0] * self.num_ports


class PartitionSim:
    """Advance one partition (a node subset plus its internal channels)
    quantum by quantum.

    Boundary traffic flows through :meth:`inject` (fragments received
    from other partitions) and :attr:`outgoing` / :meth:`drain_outgoing`
    (fragments this partition sent over boundary channels).  A serial
    run is simply a :class:`PartitionSim` owning every node -- no
    boundary traffic exists and the same code path executes.

    A quantum touches only due work.  Channel traffic waits in buckets
    keyed by arrival quantum, so delivery is one dict pop, not a scan of
    every in-channel; an idle chip only rotates its token; and every
    routing decision a fragment meets -- its output leg at a chip, and
    where a granted leg leads -- is a lookup in tables built here once.
    """

    def __init__(
        self,
        topo: SpaceTopology,
        node_ids: Iterable[int],
        costs: CostModel = CostModel.default(),
        fault_plan=None,
    ):
        self.topo = topo
        self.costs = costs
        #: cid -> merged (start, end) down-windows; arrivals landing in
        #: a window defer to its end (identical on both halves of a cut
        #: boundary because the plan travels inside the spec).
        self._fault_windows = link_fault_windows(
            fault_plan, len(topo.channels)
        )
        self.owned = sorted(node_ids)
        own = set(self.owned)
        if costs.max_quantum_words < 1:
            raise ValueError("max_quantum_words must be >= 1")
        self.nodes: Dict[int, ChipNode] = {
            nid: ChipNode(nid, topo.k) for nid in self.owned
        }
        # Owned node -> its route row: ``row[dest]`` is the output leg
        # ``topo.route(node, dest)``.
        routes = {
            nid: [topo.route(nid, d) for d in range(topo.num_ports)]
            for nid in self.owned
        }
        #: cid -> (destination leg queue, destination route row) for every
        #: channel ending in this partition (internal or boundary).
        self._feeds: Dict[int, Tuple[Deque, List[int]]] = {
            ch.cid: (self.nodes[ch.dst_node].queues[ch.dst_leg],
                     routes[ch.dst_node])
            for ch in topo.channels if ch.dst_node in own
        }
        #: Per owned chip in node order: (leg queues, token, allocator,
        #: sinks).  ``sinks[leg]`` is where a fragment granted onto that
        #: leg goes: a global output port (an ``int``), or ``(channel,
        #: is_boundary, destination leg queue, destination route row)``,
        #: the last two None when the far end belongs to another partition.
        self._chips = []
        for nid in self.owned:
            sinks: List[Any] = []
            for leg in range(topo.k):
                port = topo.ext_out.get((nid, leg))
                if port is not None:
                    sinks.append(port)
                    continue
                ch = topo.out_channel[(nid, leg)]
                if ch.dst_node in own:
                    sinks.append((ch, False) + self._feeds[ch.cid])
                else:
                    sinks.append((ch, True, None, None))
            node = self.nodes[nid]
            self._chips.append(
                (node.queues, node.token, node.allocator, sinks)
            )
        #: Arrival quantum -> [(leg queue, route row, frag)]: channel
        #: traffic not yet delivered.  Each input leg has exactly one
        #: feeding channel and sends are appended in send order, so every
        #: leg sees its channel's send order (fault deferral only moves an
        #: arrival later, never ahead of a later send).
        self._due: Dict[int, List[Tuple[Deque, List[int], SpaceFrag]]] = (
            defaultdict(list)
        )
        #: The first quantum the next :meth:`advance` simulates.
        self._next_q = 0
        #: External inputs this partition drives, in global-port order:
        #: (port, leg queue, route row).
        self._ext_in = [
            (g, self.nodes[nid].queues[leg], routes[nid])
            for g, (nid, leg) in sorted(topo.ext_in.items())
            if nid in own
        ]
        self.outgoing: List[Tuple[int, int, SpaceFrag]] = []
        self.stats = PartStats(num_ports=topo.num_ports)
        #: Captured at construction like the other engines; shared-key
        #: journey mode because a journey's marks span partitions.
        self._tel = _telemetry.RECORDER
        if self._tel is not None:
            self._tel.journeys.share_keys()
        #: Per-external-port admission counter: the journey tag is
        #: ``seq * num_ports + port``, deterministic and identical for
        #: any partitioning (each port is admitted by exactly one
        #: partition, in the same order as the serial reference).
        self._adm_seq: Dict[int, int] = {}

    # -- boundary protocol ---------------------------------------------
    def _arrival(self, ch: Channel, send_quantum: int) -> int:
        """When a fragment sent at ``send_quantum`` becomes visible:
        ``latency`` quanta later, pushed to the end of any down-window
        it lands in (monotone, so per-channel send order holds)."""
        arrival = send_quantum + ch.latency
        windows = self._fault_windows.get(ch.cid)
        if windows:
            for start, end in windows:
                if start <= arrival < end:
                    return end
                if arrival < start:
                    break
        return arrival

    def inject(self, cid: int, send_quantum: int, frag: SpaceFrag) -> None:
        """Deliver a boundary fragment: visible ``latency`` quanta after
        its send quantum (the receiver-side half of the token window).

        Raises ``RuntimeError`` when that quantum has already been
        simulated: the window protocol was broken, and delivering the
        fragment late would silently diverge from the serial run.
        """
        arrival = self._arrival(self.topo.channels[cid], send_quantum)
        if arrival < self._next_q:
            raise RuntimeError(
                f"fragment on channel {cid} sent at quantum {send_quantum} "
                f"arrives at quantum {arrival}, but quanta up to "
                f"{self._next_q - 1} are already simulated"
            )
        queue, row = self._feeds[cid]
        self._due[arrival].append((queue, row, frag))

    def drain_outgoing(self) -> List[Tuple[int, int, SpaceFrag]]:
        """(cid, send quantum, frag) sends since the last drain."""
        out = self.outgoing
        self.outgoing = []
        return out

    # -- the stepper ----------------------------------------------------
    def advance(self, source, q_start: int, count: int, warmup: int) -> None:
        """Simulate quanta ``[q_start, q_start + count)``; quanta ``>=
        warmup`` accumulate into :attr:`stats`.

        ``source`` follows the fabric ``PortSource`` protocol and must
        make per-port-independent draws (counter-based models): each
        partition polls only its own external ports, and the draws must
        match what a single process polling all ports would have seen.

        Calls must be contiguous: ``q_start`` is the quantum after the
        last one simulated, else ``RuntimeError`` (a skipped quantum's
        due bucket would never be delivered).
        """
        if q_start != self._next_q:
            raise RuntimeError(
                f"advance from quantum {q_start}, but the next unsimulated "
                f"quantum is {self._next_q}"
            )
        num_ports = self.topo.num_ports
        mqw = self.costs.max_quantum_words
        stats = self.stats
        tel = self._tel
        due = self._due
        outgoing = self.outgoing
        end = q_start + count
        for q in range(q_start, end):
            measuring = q >= warmup
            # 1. Channel deliveries due this quantum.
            arrived = due.pop(q, None)
            if arrived is not None:
                for queue, row, frag in arrived:
                    queue.append((frag, row[frag[0]]))
            # 2. External admissions (one packet when the leg idles).
            for g, queue, row in self._ext_in:
                if queue:
                    continue
                pkt = source(g)
                if pkt is None:
                    continue
                dest, words = pkt
                if not 0 <= dest < num_ports:
                    raise ValueError(f"destination {dest} out of range")
                if words < 1:
                    raise ValueError("packet must have at least one word")
                out_leg = row[dest]
                if tel is not None:
                    seq = self._adm_seq.get(g, 0)
                    self._adm_seq[g] = seq + 1
                    tag = seq * num_ports + g
                    jt = tel.journeys
                    jt.arrive(tag, g, q)
                    jt.lookup(
                        tag, dest, words * (self.costs.word_bits // 8), q
                    )
                    jt.enqueue(tag, q)
                    remaining = words
                    while remaining > 0:
                        w = min(remaining, mqw)
                        remaining -= w
                        queue.append(((dest, w, remaining == 0, tag), out_leg))
                    continue
                remaining = words
                while remaining > 0:
                    w = min(remaining, mqw)
                    remaining -= w
                    queue.append(((dest, w, remaining == 0), out_leg))
            # 3. Each busy chip allocates from its queue heads; grants fan
            #    out to external ports, internal channels or the boundary.
            body = 0
            blocked = 0
            for queues, token, allocator, sinks in self._chips:
                if not any(queues):
                    token.advance()
                    continue
                alloc = allocator.allocate(
                    [fifo[0][1] if fifo else None for fifo in queues],
                    token.master,
                )
                for grant in alloc.grants.values():
                    frag, leg = queues[grant.src].popleft()
                    b = frag[1] + grant.expansion
                    if b > body:
                        body = b
                    if tel is not None and len(frag) > 3:
                        tel.journeys.hop(frag[3], q)
                    sink = sinks[leg]
                    if sink.__class__ is int:
                        if measuring:
                            stats.delivered_words += frag[1]
                            stats.per_port_words[sink] += frag[1]
                            if frag[2]:
                                stats.delivered_packets += 1
                                stats.per_port_packets[sink] += 1
                        if tel is not None and len(frag) > 3 and frag[2]:
                            tel.journeys.depart(frag[3], q)
                        continue
                    ch, boundary, queue, row = sink
                    if boundary:
                        outgoing.append((ch.cid, q, frag))
                    else:
                        due[self._arrival(ch, q)].append((queue, row, frag))
                blocked += len(alloc.blocked)
                token.advance()
            if measuring:
                stats.body_max.append(body)
                stats.blocked_events += blocked
        self._next_q = end


def merge_part_stats(
    parts: List[PartStats],
    num_ports: int,
    costs: CostModel,
    timing: Optional[PhaseTiming] = None,
) -> "FabricStats":
    """Fold partition counters into one :class:`FabricStats`.

    Local counters sum; the global quantum durations come from the
    element-wise max of the per-quantum body maxima (a quantum's length
    is set by its longest transfer anywhere in the fabric, and ``max``
    is associative, so any partition grouping merges identically).
    """
    from repro.core.fabricsim import FabricStats

    if not parts:
        raise ValueError("nothing to merge")
    if timing is None:
        timing = (
            DEFAULT_TIMING
            if costs.quantum_ctl_overhead == DEFAULT_TIMING.control_total
            else PhaseTiming.for_model(costs)
        )
    lengths = {len(p.body_max) for p in parts}
    if len(lengths) != 1:
        raise ValueError(
            "partitions measured different quantum counts: "
            f"{sorted(lengths)}"
        )
    quanta = lengths.pop()
    stats = FabricStats(num_ports=num_ports, costs=costs)
    stats.quanta = quanta
    body = [0] * quanta
    for p in parts:
        if p.num_ports != num_ports:
            raise ValueError("cannot merge stats with different port counts")
        stats.delivered_words += p.delivered_words
        stats.delivered_packets += p.delivered_packets
        stats.blocked_events += p.blocked_events
        for i, v in enumerate(p.per_port_words):
            stats.per_port_words[i] += v
        for i, v in enumerate(p.per_port_packets):
            stats.per_port_packets[i] += v
        for i, b in enumerate(p.body_max):
            if b > body[i]:
                body[i] = b
    ctl = timing.control_total
    idle = idle_quantum_cycles(timing)
    for b in body:
        if b:
            stats.cycles += ctl + b
        else:
            stats.idle_quanta += 1
            stats.cycles += idle
    return stats
