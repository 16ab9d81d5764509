"""Word-level router: every word crosses the real static network.

This model runs the full Rotating Crossbar protocol on the
:class:`~repro.raw.chip.RawChip`: ingress tile programs send two-word
headers through their crossbar tile's switch, the four Crossbar
Processors exchange headers around the ring (software-pipelined so the
all-or-nothing switch instructions cannot interlock), each tile
*independently* evaluates the allocation rule on identical information
(the distributed-scheduling property of chapter 6), grants flow back to
the ingresses over the reverse links, and the granted bodies stream
word-by-word through compile-time-shaped
:class:`~repro.raw.switchproc.RouteInstruction` windows whose offsets
are exactly the expansion numbers of section 6.2.

It is two orders of magnitude slower than the phase model, so it is used
where per-cycle truth matters: the Fig 7-3 per-tile utilization traces,
and the cross-validation tests that pin the phase model's quantum costs.
Restrictions: 4 ports (the prototype's layout), saturated sources,
packets of at most one quantum (every Fig 7-1 size qualifies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.config import CostModel
from repro.core.allocator import Allocation, Allocator
from repro.core.ring import CW, RingGeometry
from repro.ip.packet import IPv4Packet
from repro.metrics.utilization import UtilizationSummary, summarize_trace
from repro.raw.chip import RawChip
from repro.raw.layout import CROSSBAR_RING, ROUTER_LAYOUT
from repro.raw.switchproc import RouteInstruction, SwitchProcessor
from repro.sim.kernel import (
    BUSY,
    Get,
    GetBurst,
    IDLE,
    MEM_BLOCK,
    Put,
    PutBurst,
    Timeout,
)
from repro.sim.trace import Trace
from repro.telemetry import runtime as _telemetry
from repro.telemetry.events import (
    EV_PKT_ARRIVE,
    EV_PKT_DEPART,
    EV_PKT_DROP,
    EV_PKT_ENQUEUE,
    EV_PKT_HOP,
    EV_PKT_LOOKUP,
    EV_TOKEN_PASS,
    EV_XBAR_CONFIG,
)

#: Tile-processor cycles each Crossbar Processor spends computing the
#: jump-table index after the header exchange -- the same budget as
#: :attr:`repro.core.phases.PhaseTiming.choose_config`.  The word-level
#: model's total per-quantum control comes out ~60-70 cycles versus the
#: phase model's calibrated 48, because the generated ingress program
#: serializes header prep that the thesis's hand-scheduled assembly
#: overlaps; the decomposition is documented in EXPERIMENTS.md.
ALLOC_COMPUTE_CYCLES = 8

#: A per-port source of (destination port, packet).  Called when the
#: ingress needs its next packet; word-level runs are saturated.
WordSource = Callable[[int], Tuple[int, IPv4Packet]]


@dataclass
class _Header:
    """The two-word local header exchanged between crossbar tiles."""

    dest: Optional[int]
    words: int


@dataclass
class _FragMeta:
    """First body word: lets the line-card sink delimit packets."""

    src_port: int
    dest_port: int
    nwords: int
    nbytes: int
    packet: IPv4Packet


@dataclass
class WordLevelResult:
    cycles: int
    delivered_packets: int
    delivered_words: int
    per_port_packets: List[int]
    trace: Optional[Trace]
    costs: CostModel = CostModel.default()

    @property
    def gbps(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.costs.gbps(self.delivered_words * self.costs.word_bits, self.cycles)

    @property
    def mpps(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.costs.mpps(self.delivered_packets, self.cycles)

    def utilization(self, start: int = 0, stop: Optional[int] = None) -> Dict[str, UtilizationSummary]:
        if self.trace is None:
            raise RuntimeError("run was not traced")
        return summarize_trace(self.trace, start, stop)


class WordLevelRouter:
    """The 4-port router on the word-level chip model."""

    def __init__(
        self,
        source: WordSource,
        trace: Optional[Trace] = None,
        verify_payloads: bool = False,
        costs: CostModel = CostModel.default(),
        use_bursts: bool = True,
        faults=None,
    ):
        self.costs = costs
        # Burst channel ops are cycle-for-cycle identical to the word
        # loops (tests/test_burst_equivalence.py); the flag exists for
        # A/B validation and as an escape hatch.
        self.use_bursts = use_bursts
        self.chip = RawChip(trace=trace, num_static_networks=1, costs=costs)
        self.trace = trace
        self.source = source
        self.verify_payloads = verify_payloads
        self.ring = RingGeometry(4)
        self.allocator = Allocator(self.ring)
        self.delivered_packets = 0
        self.delivered_words = 0
        self.per_port_packets = [0, 0, 0, 0]
        self.payload_errors = 0
        self.corrupt_drops = 0
        # Compiled body programs keyed by segment signature: traffic
        # repeats allocations (permutation traffic literally reuses one
        # forever), so each distinct program is compiled once per run.
        self._program_cache: Dict[tuple, List[RouteInstruction]] = {}
        self.injector = None
        self.resilience = None
        self._fault_plan = faults
        self._build()
        self._install_faults(faults)

    # ------------------------------------------------------------------
    # Channel plumbing.
    # ------------------------------------------------------------------
    def _build(self) -> None:
        chip = self.chip
        net = chip.network
        n = 4
        self.in_link = []
        self.grant_link = []
        self.out_link = []
        self.lk_req = []
        self.lk_resp = []
        self.line_out = []
        self.cw_link = []
        self.ccw_link = []
        self.cfg_chan = []
        self.done_chan = []
        self.sw2proc = []
        self.proc2sw = []
        for r, layout in enumerate(ROUTER_LAYOUT):
            xb = layout.crossbar
            self.in_link.append(net.link(layout.ingress, xb))
            self.grant_link.append(net.link(xb, layout.ingress))
            self.out_link.append(net.link(xb, layout.egress))
            self.lk_req.append(net.link(layout.ingress, layout.lookup))
            self.lk_resp.append(net.link(layout.lookup, layout.ingress))
            edge_dir = net.edge_directions(layout.egress)[0]
            self.line_out.append(net.edge(layout.egress, edge_dir))
            self.cw_link.append(net.link(xb, CROSSBAR_RING[(r + 1) % n]))
            self.ccw_link.append(net.link(xb, CROSSBAR_RING[(r - 1) % n]))
            # $csto/$csti between the crossbar tile processor and switch.
            self.sw2proc.append(chip.sim.channel(f"csti{r}", capacity=1, latency=1))
            self.proc2sw.append(chip.sim.channel(f"csto{r}", capacity=1, latency=1))
            # Switch program-counter load + end-of-body confirmation.
            self.cfg_chan.append(chip.sim.channel(f"swpc{r}", capacity=1))
            self.done_chan.append(chip.sim.channel(f"swdone{r}", capacity=1))

        for r, layout in enumerate(ROUTER_LAYOUT):
            chip.add_tile_program(layout.ingress, self._ingress(r), role="ingress")
            chip.add_tile_program(layout.lookup, self._lookup(r), role="lookup")
            chip.add_tile_program(layout.crossbar, self._crossbar(r), role="crossbar")
            chip.add_switch_program(layout.crossbar, self._crossbar_switch(r))
            chip.add_switch_program(layout.egress, self._egress_switch(r))
            chip.add_tile_program(layout.egress, self._egress(r), role="egress")
            chip.add_io_program(self._line_sink(r), name=f"sink{r}")

    # ------------------------------------------------------------------
    # Fault injection (repro.faults).
    # ------------------------------------------------------------------
    def _install_faults(self, plan) -> None:
        from repro.faults.inject import FaultInjector
        from repro.faults.plan import resolve_plan
        from repro.metrics.resilience import ResilienceMetrics

        self._burst_gate = None
        plan = resolve_plan(plan)
        if plan is None:
            return
        registry = {}
        for p in range(4):
            registry[f"input:{p}"] = self.in_link[p]
            registry[f"grant:{p}"] = self.grant_link[p]
            registry[f"egress:{p}"] = self.out_link[p]
            registry[f"line:{p}"] = self.line_out[p]
        net_channels = self.chip.network.channels()

        def channel_for(ev):
            ch = registry.get(ev.target)
            if ch is not None:
                return ch
            if ev.target.startswith("link:"):
                # Any raw static-network channel by its kernel name,
                # e.g. "link:sn1.t5->t6" -- word-level only.
                return net_channels.get(ev.target[len("link:"):])
            p = ev.port
            if p is not None and 0 <= p < 4 and ev.kind in (
                "stall",
                "link_down",
                "corrupt",
            ):
                return self.in_link[p]
            return None

        self.resilience = ResilienceMetrics()
        # No on_token_loss / on_port_down hooks: the word-level prototype
        # has no fabric-global recovery state, so validate() rejects
        # plans asking for those kinds with a clear error.
        self.injector = FaultInjector(
            plan,
            channels=registry,
            channel_for=channel_for,
            corrupt=self._fault_corrupt,
            metrics=self.resilience,
        )
        self.injector.attach(self.chip.sim, name="fault-injector")
        self._burst_gate = lambda span: self.injector.burst_ok(
            self.chip.sim.now, span
        )

    @staticmethod
    def _fault_corrupt(value, param: int):
        """Flip one bit of an in-flight data word.  Control words
        (headers, fragment meta) pass through untouched: corrupting the
        protocol itself would model a different failure class."""
        if isinstance(value, int):
            return value ^ (1 << (param % 32))
        return value

    def _bursts_ok(self, span: int) -> bool:
        """Burst fallback gate for the ingress/sink programs."""
        if self._burst_gate is None:
            return True
        return self._burst_gate(span)

    # ------------------------------------------------------------------
    # Tile programs.
    # ------------------------------------------------------------------
    def _ingress(self, port: int) -> Generator:
        """Ingress Processor: prep packets, follow the quantum protocol."""
        cache = self.chip.caches[ROUTER_LAYOUT[port].ingress]
        sim = self.chip.sim
        tel = _telemetry.RECORDER
        port_s = f"port{port}"
        buf_addr = 0
        pending: Optional[Tuple[int, List[object]]] = None  # (dest, body words)
        announced = False
        while True:
            if pending is None:
                dest, pkt = self.source(port)
                if tel is not None:
                    tel.journeys.arrive(id(pkt), port, sim.now)
                    tel.events.emit(
                        sim.now, EV_PKT_ARRIVE, port_s, pkt.total_length
                    )
                # Route lookup on the neighboring Lookup Processor; the
                # reply carries the output port (here verified against
                # the traffic intent by the lookup program itself).
                yield Put(self.lk_req[port], pkt.dst)
                looked_up = yield Get(self.lk_resp[port])
                dest = looked_up if looked_up is not None else dest
                yield Timeout(self.costs.ingress_header_cycles, BUSY)
                if not pkt.checksum_ok():
                    if tel is not None:
                        tel.journeys.drop(id(pkt), "checksum", sim.now)
                        tel.events.emit(sim.now, EV_PKT_DROP, port_s, "checksum")
                        tel.registry.count("drops.checksum")
                    continue
                if tel is not None:
                    tel.journeys.lookup(id(pkt), dest, pkt.total_length, sim.now)
                    tel.events.emit(sim.now, EV_PKT_LOOKUP, port_s, dest)
                pkt.decrement_ttl()
                words = pkt.to_words()
                nwords = len(words)
                if nwords > self.costs.max_quantum_words:
                    raise ValueError(
                        "word-level model handles single-quantum packets only"
                    )
                # Buffer the payload in local memory.  The ring buffer is
                # sized at two quanta so it stays cache-resident: only
                # the first pass takes compulsory misses.
                buf_region = 2 * self.costs.max_quantum_words * 4
                stall = cache.touch_range(buf_addr, nwords * 4)
                buf_addr = (buf_addr + nwords * 4) % buf_region
                if stall:
                    yield Timeout(stall, MEM_BLOCK)
                meta = _FragMeta(
                    src_port=port,
                    dest_port=dest,
                    nwords=nwords,
                    nbytes=pkt.total_length,
                    packet=pkt,
                )
                if self.resilience is not None:
                    self.resilience.offered_words += nwords
                pending = (dest, [meta] + words[1:])
                announced = False
            dest, body = pending
            yield Put(self.in_link[port], _Header(dest=dest, words=len(body)))
            yield Put(self.in_link[port], 0)  # header pad word
            if tel is not None and not announced:
                # First header offer = fabric-entry mark; re-offers after
                # a denied grant repeat the protocol, not the journey.
                announced = True
                tel.journeys.enqueue(id(pkt), sim.now)
                tel.events.emit(sim.now, EV_PKT_ENQUEUE, port_s, dest)
            yield Timeout(2, BUSY)  # the two header sends are instructions
            granted = yield Get(self.grant_link[port])
            if granted:
                if tel is not None:
                    tel.journeys.hop(id(pkt), sim.now)
                    tel.events.emit(sim.now, EV_PKT_HOP, port_s, dest)
                # Each word is a register-mapped load-and-send
                # (``lw $csto, 0(r)``): one instruction per word, so the
                # streaming shows up as busy cycles in the Fig 7-3 trace;
                # back-pressure appears as transmit-blocked.
                if self.use_bursts and self._bursts_ok(2 * len(body)):
                    yield PutBurst(self.in_link[port], body, gap=1, state=BUSY)
                else:
                    for w in body:
                        yield Put(self.in_link[port], w)
                        yield Timeout(1, BUSY)
                pending = None

    def _lookup(self, port: int) -> Generator:
        """Lookup Processor: LPM walk priced through the tile cache."""
        from repro.ip.lookup import LookupCostModel, RoutingTable

        table = RoutingTable.uniform_split(4)
        cache = self.chip.caches[ROUTER_LAYOUT[port].lookup]
        model = LookupCostModel(cache)
        while True:
            dst = yield Get(self.lk_req[port])
            out, visits = table.lookup_with_path(dst)
            cost = model.cost(
                visits, (v * self.costs.cache_line_bytes for v in range(visits))
            )
            yield Timeout(cost, BUSY)
            yield Put(self.lk_resp[port], out)

    def _crossbar(self, ring_index: int) -> Generator:
        """Crossbar Processor: header exchange + distributed allocation."""
        i = ring_index
        sim = self.chip.sim
        # Every tile computes the identical allocation; ring tile 0 alone
        # reports it so the telemetry stream is not quadruplicated.
        tel = _telemetry.RECORDER if i == 0 else None
        token = 0
        while True:
            # Own header arrives via the switch ($csti).
            own = yield Get(self.sw2proc[i])
            yield Get(self.sw2proc[i])  # pad
            headers: Dict[int, _Header] = {i: own}
            # Inject the local header clockwise; the switch's fanout
            # instructions then stream the other tiles' headers in
            # (each word forwarded downstream the same cycle it is
            # delivered to this processor -- no processor round trips).
            yield Put(self.proc2sw[i], own)
            yield Put(self.proc2sw[i], 0)
            for rnd in range(3):
                incoming = yield Get(self.sw2proc[i])
                yield Get(self.sw2proc[i])  # pad
                headers[(i - 1 - rnd) % 4] = incoming
            # choose_new_config: jump-table address computation.  Every
            # crossbar tile evaluates the same deterministic rule on the
            # same headers -- the distributed schedule.
            yield Timeout(ALLOC_COMPUTE_CYCLES, BUSY)
            requests = tuple(headers[p].dest for p in range(4))
            words_by_src = {p: headers[p].words for p in range(4)}
            alloc = self.allocator.allocate(requests, token)
            if tel is not None:
                tel.events.emit(
                    sim.now, EV_XBAR_CONFIG, "fabric",
                    (token,
                     tuple(sorted((g.src, g.dst) for g in alloc.grants.values()))),
                )
                tel.registry.count("fabric.xbar_configs")
            granted = i in alloc.grants
            yield Put(self.grant_link[i], 1 if granted else 0)
            program = self._body_instructions(alloc, words_by_src, i)
            yield Put(self.cfg_chan[i], program)
            yield Get(self.done_chan[i])
            token = (token + 1) % 4
            if tel is not None:
                # The word-level token is a per-tile local int, so the
                # pass is counted here rather than in core.token.
                tel.registry.count("fabric.tokens_passed")
                tel.events.emit(sim.now, EV_TOKEN_PASS, "fabric", token)
                tel.registry.maybe_snapshot(sim.now)

    def _crossbar_switch(self, ring_index: int) -> Generator:
        """Switch Processor: fixed header program + per-quantum body."""
        i = ring_index
        sp = SwitchProcessor(
            CROSSBAR_RING[i], use_bursts=self.use_bursts, burst_gate=self._burst_gate
        )
        header_in = RouteInstruction(
            moves=((self.in_link[i], self.sw2proc[i]),), repeat=2, label="hdr-in"
        )
        # Exchange: inject the local header clockwise, then fan each
        # arriving upstream word out to both the processor and the
        # clockwise-next tile in the same cycle (Raw's one-read/
        # two-write route instruction).  Dependencies point strictly
        # upstream around the ring, so the all-or-nothing instructions
        # cannot interlock.
        ex_inject = RouteInstruction(
            moves=((self.proc2sw[i], self.cw_link[i]),), repeat=2, label="ex-inj"
        )
        cw_in = self.cw_link[(i - 1) % 4]
        ex_forward = RouteInstruction(
            moves=((cw_in, self.sw2proc[i]), (cw_in, self.cw_link[i])),
            repeat=4,
            label="ex-fwd",
        )
        ex_last = RouteInstruction(
            moves=((cw_in, self.sw2proc[i]),), repeat=2, label="ex-last"
        )
        while True:
            yield from sp.execute_one(header_in)
            yield from sp.execute_one(ex_inject)
            yield from sp.execute_one(ex_forward)
            yield from sp.execute_one(ex_last)
            program = yield Get(self.cfg_chan[i])
            for instr in program:
                yield from sp.execute_one(instr)
            yield Put(self.done_chan[i], 1)

    def _body_instructions(
        self, alloc: Allocation, words_by_src: Dict[int, int], ring_index: int
    ) -> List[RouteInstruction]:
        """Compile the quantum's body for one tile: per-cycle move sets
        shaped by each flow's expansion window, run-length compressed."""
        i = ring_index
        # Collect (start_offset, length, src_channel, dst_channel).
        segments = []
        for grant in alloc.grants.values():
            path = grant.path
            tiles = self.ring.ring_tiles_on_path(path)
            if i not in tiles:
                continue
            pos = tiles.index(i)
            length = words_by_src[grant.src]
            # Incoming side at this tile.
            if pos == 0:
                src_ch = self.in_link[i]
            elif path.direction == CW:
                src_ch = self.cw_link[(i - 1) % 4]
            else:
                src_ch = self.ccw_link[(i + 1) % 4]
            # Outgoing side.
            if i == grant.dst:
                dst_ch = self.out_link[i]
            elif path.direction == CW:
                dst_ch = self.cw_link[i]
            else:
                dst_ch = self.ccw_link[i]
            segments.append((pos, length, src_ch, dst_ch))
        if not segments:
            return []
        # The program is a pure function of the segment list (channel
        # identities included); reuse the compiled form when this
        # allocation shape has been seen before.
        key = tuple(
            (pos, length, id(src), id(dst)) for pos, length, src, dst in segments
        )
        cached = self._program_cache.get(key)
        if cached is not None:
            return cached
        duration = max(pos + length for pos, length, _, _ in segments)
        program: List[RouteInstruction] = []
        current_moves: Optional[Tuple] = None
        run = 0
        for t in range(duration):
            moves = tuple(
                (src, dst)
                for pos, length, src, dst in segments
                if pos <= t < pos + length
            )
            if moves == current_moves:
                run += 1
            else:
                if run:
                    program.append(
                        RouteInstruction(moves=current_moves, repeat=run, label="body")
                    )
                current_moves = moves
                run = 1
        if run:
            program.append(
                RouteInstruction(moves=current_moves, repeat=run, label="body")
            )
        self._program_cache[key] = program
        return program

    def _egress_switch(self, port: int) -> Generator:
        """Egress switch: permanent cut-through route to the line out."""
        sp = SwitchProcessor(
            ROUTER_LAYOUT[port].egress,
            use_bursts=self.use_bursts,
            burst_gate=self._burst_gate,
        )
        # The relay runs forever, so how many repetitions one instruction
        # carries is unobservable (the word stream is identical for any
        # subdivision); a whole-quantum repeat lets the burst path hand
        # the kernel one command per quantum of words instead of per word.
        forward = RouteInstruction(
            moves=((self.out_link[port], self.line_out[port]),),
            repeat=self.costs.max_quantum_words,
            label="egress-fwd",
        )
        while True:
            yield from sp.execute_one(forward)

    def _egress(self, port: int) -> Generator:
        """Egress Processor: idle on the single-quantum fast path.

        (Reassembly of multi-quantum packets is the phase model's job;
        word-level runs are restricted to single-quantum packets.)
        """
        while True:
            yield Timeout(1 << 20, IDLE)

    def _line_sink(self, port: int) -> Generator:
        """Off-chip line card: delimit packets, count deliveries."""
        sim = self.chip.sim
        tel = _telemetry.RECORDER
        port_s = f"port{port}"
        while True:
            meta = yield Get(self.line_out[port])
            if not isinstance(meta, _FragMeta):
                raise RuntimeError(
                    f"egress {port}: expected fragment meta, got {meta!r}"
                )
            if self.use_bursts and self._bursts_ok(meta.nwords):
                received = yield GetBurst(self.line_out[port], meta.nwords - 1)
            else:
                received = []
                for _ in range(meta.nwords - 1):
                    w = yield Get(self.line_out[port])
                    received.append(w)
            if self.verify_payloads or self.injector is not None:
                expected = meta.packet.to_words()[1:]
                if received != expected:
                    self.payload_errors += 1
                    if self.injector is not None:
                        # Line-card CRC catches the in-flight corruption;
                        # the packet is discarded, not delivered.
                        self.corrupt_drops += 1
                        self.resilience.record_drop("corrupt")
                        if tel is not None:
                            tel.journeys.drop(id(meta.packet), "corrupt", sim.now)
                            tel.events.emit(
                                sim.now, EV_PKT_DROP,
                                f"port{meta.src_port}", "corrupt",
                            )
                            tel.registry.count("drops.corrupt")
                        continue
            self.delivered_packets += 1
            self.delivered_words += meta.nwords
            self.per_port_packets[port] += 1
            if tel is not None:
                tel.journeys.depart(id(meta.packet), sim.now)
                tel.events.emit(sim.now, EV_PKT_DEPART, port_s, meta.nbytes)
            if self.resilience is not None:
                self.resilience.delivered_words += meta.nwords

    # ------------------------------------------------------------------
    def run(self, until_cycles: int, warmup_cycles: int = 0) -> WordLevelResult:
        """Run to ``until_cycles``; measure after ``warmup_cycles`` (cache
        warm-up and pipeline fill excluded from the reported rate)."""
        if warmup_cycles:
            self.chip.run(until=warmup_cycles)
            base_packets = self.delivered_packets
            base_words = self.delivered_words
            base_per_port = list(self.per_port_packets)
        else:
            base_packets = base_words = 0
            base_per_port = [0, 0, 0, 0]
        self.chip.run(until=until_cycles)
        return WordLevelResult(
            cycles=self.chip.now - warmup_cycles,
            delivered_packets=self.delivered_packets - base_packets,
            delivered_words=self.delivered_words - base_words,
            per_port_packets=[
                a - b for a, b in zip(self.per_port_packets, base_per_port)
            ],
            trace=self.trace,
            costs=self.costs,
        )
