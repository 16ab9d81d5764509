"""The Ingress Processor (thesis section 4.2).

Per packet: stream the words in from the line card (one word per cycle),
verify the IP header checksum, decrement TTL (with the incremental
checksum patch), hand the header to the Lookup Processor -- whose
latency hides under the payload streaming except for tiny packets --
fragment if the packet exceeds the crossbar transfer block, and enqueue
the fragments toward the Crossbar Processor, blocking when the input
queue is full (back-pressure to the external buffer).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.ip.packet import IPv4Packet
from repro.router.frags import fragment_packet
from repro.sim.channel import Channel
from repro.sim.kernel import BUSY, Get, Put, Timeout
from repro.telemetry import runtime as _telemetry
from repro.telemetry.events import (
    EV_PKT_ARRIVE,
    EV_PKT_DROP,
    EV_PKT_ENQUEUE,
    EV_PKT_LOOKUP,
)

#: Supplies the next packet for a port, or None when the source is done.
PacketSupply = Callable[[], Optional[IPv4Packet]]


class IngressProcessor:
    """One port's ingress pipeline stage."""

    def __init__(
        self,
        port: int,
        router,  # RawRouter (kept loose to avoid an import cycle)
        supply: Optional[PacketSupply] = None,
        line_in: Optional[Channel] = None,
    ):
        if (supply is None) == (line_in is None):
            raise ValueError("ingress needs exactly one of supply / line_in")
        self.port = port
        self.router = router
        self.supply = supply
        self.line_in = line_in
        self.packets_in = 0

    def run(self) -> Generator:
        router = self.router
        sim = router.sim
        stats = router.stats
        table = router.table
        num_ports = router.num_ports
        max_quantum_words = router.max_quantum_words
        queue = router.input_queues[self.port]
        fabric_wake = router.fabric_wake
        lookup_cycles = router.costs.lookup_cycles
        header = Timeout(router.costs.ingress_header_cycles, BUSY)
        # One stream Timeout per packet length: the kernel reads a
        # Timeout's delay and state when it is yielded and keeps nothing.
        streams = {}
        supply = self.supply
        line = Get(self.line_in) if supply is None else None
        tel = _telemetry.RECORDER
        port_s = f"port{self.port}"
        while True:
            if supply is not None:
                pkt = supply()
                if pkt is None:
                    return
            else:
                pkt = yield line
                if pkt is None:  # sentinel: line card finished
                    return
            self.packets_in += 1
            if pkt.arrival_cycle < 0:
                pkt.arrival_cycle = sim.now
            if tel is not None:
                tel.journeys.arrive(id(pkt), self.port, sim.now)
                tel.events.emit(sim.now, EV_PKT_ARRIVE, port_s, pkt.total_length)
            words = pkt.total_words
            if router.faults_on:
                router.resilience.offered_words += words

            # Stream the packet in from the line (1 word/cycle); the
            # route lookup runs on the Lookup Processor concurrently and
            # only extends the critical path when it outlasts the payload.
            stream = streams.get(words)
            if stream is None:
                stream = streams[words] = Timeout(max(words, lookup_cycles), BUSY)
            yield stream
            yield header

            # Functional header path: these really run on the packet.
            if not pkt.checksum_ok():
                stats.checksum_drops += 1
                if tel is not None:
                    self._drop(tel, pkt, "checksum", sim.now)
                continue
            if pkt.ttl <= 1:
                stats.ttl_drops += 1
                if tel is not None:
                    self._drop(tel, pkt, "ttl", sim.now)
                continue
            pkt.decrement_ttl()
            out_port = table.lookup(pkt.dst)
            if out_port is None or not 0 <= out_port < num_ports:
                stats.ttl_drops += 1  # unroutable; folded into drop count
                if tel is not None:
                    self._drop(tel, pkt, "unroutable", sim.now)
                continue
            if router.faults_on and router.degraded.any_dead:
                # Degraded mode: the routing layer has reconverged around
                # dead ports, steering their traffic to the next live one.
                out_port = router.degraded.remap(out_port)
                if out_port is None:  # every port is dead
                    stats.dead_port_drops += 1
                    router.resilience.record_drop("dead_port")
                    if tel is not None:
                        self._drop(tel, pkt, "dead_port", sim.now)
                    continue
            pkt.output_port = out_port
            if tel is not None:
                tel.journeys.lookup(id(pkt), out_port, pkt.total_length, sim.now)
                tel.events.emit(sim.now, EV_PKT_LOOKUP, port_s, out_port)

            first = True
            for frag in fragment_packet(pkt, out_port, max_quantum_words):
                yield Put(queue, frag)
                if first:
                    first = False
                    if tel is not None:
                        tel.journeys.enqueue(id(pkt), sim.now)
                        tel.events.emit(sim.now, EV_PKT_ENQUEUE, port_s, out_port)
                sim.try_put(fabric_wake, 1)

    @staticmethod
    def _drop(tel, pkt, cause: str, now: int) -> None:
        tel.journeys.drop(id(pkt), cause, now)
        tel.events.emit(now, EV_PKT_DROP, f"port{pkt.input_port}", cause)
        tel.registry.count(f"drops.{cause}")
