"""The Egress Processor (thesis section 4.2).

Collects a packet's crossbar fragments (they interleave with other
inputs' quanta), and once complete streams the reassembled packet to the
output line card at one word per cycle, recording delivery time into the
router's meters.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.sim.kernel import BUSY, Get, Timeout
from repro.telemetry import runtime as _telemetry
from repro.telemetry.events import EV_PKT_DEPART, EV_PKT_DROP


class EgressProcessor:
    """One port's egress pipeline stage."""

    def __init__(self, port: int, router):
        self.port = port
        self.router = router
        self._have: Dict[int, int] = {}  # packet id -> fragments received

    def run(self) -> Generator:
        router = self.router
        sim = router.sim
        stats = router.stats
        have = self._have
        get = Get(router.egress_queues[self.port])
        drains = {}  # packet words -> its drain Timeout (see ingress)
        tel = _telemetry.RECORDER
        port_s = f"port{self.port}"
        while True:
            frag = yield get
            pkt = frag.packet
            pid = id(pkt)
            if frag.count > 1:
                got = have.get(pid, 0) + 1
                if got < frag.count:
                    have[pid] = got
                    continue
                have.pop(pid, None)
            if router.faults_on:
                # Egress-side verification: a header corrupted in flight
                # no longer matches its checksum (ingress re-patched it
                # after the TTL decrement, so healthy packets pass).
                if not pkt.checksum_ok():
                    stats.corrupt_drops += 1
                    router.resilience.record_drop("corrupt")
                    if tel is not None:
                        tel.journeys.drop(pid, "corrupt", sim.now)
                        tel.events.emit(sim.now, EV_PKT_DROP, port_s, "corrupt")
                        tel.registry.count("drops.corrupt")
                    continue
            # Stream the complete packet to the line card: 1 word/cycle.
            words = pkt.total_words
            drain = drains.get(words)
            if drain is None:
                drain = drains[words] = Timeout(words, BUSY)
            yield drain
            now = sim.now
            pkt.departure_cycle = now
            if tel is not None:
                tel.journeys.depart(pid, now)
                tel.events.emit(now, EV_PKT_DEPART, port_s, pkt.total_length)
            stats.record_delivery(now, self.port, pkt.total_length, pkt.input_port)
            if router.faults_on:
                router.resilience.delivered_words += words
            if pkt.arrival_cycle >= 0 and now >= stats.warmup_cycles:
                stats.latency.record(pkt.arrival_cycle, now)
