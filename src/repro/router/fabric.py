"""The Rotating Crossbar fabric loop inside the full router.

One synchronous process models the four Crossbar Processors advancing in
lockstep routing quanta (the thesis's tiles each evaluate the identical
deterministic rule on the exchanged headers, so a single evaluation per
quantum is exact).  Each quantum: inspect the four head-of-line
fragments, run the :class:`~repro.core.allocator.Allocator` (or index
the compiled jump table, when configured to demonstrate the chapter-6
artifact), advance the clock by the phase cost, deliver the granted
fragments to the egress queues, rotate the token.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.core.phases import idle_quantum_cycles, quantum_cycles
from repro.router.frags import QuantumFragment
from repro.sim.kernel import BUSY, Get, Put, Timeout
from repro.telemetry import runtime as _telemetry
from repro.telemetry.events import EV_PKT_HOP, EV_TOKEN_PASS, EV_XBAR_CONFIG


class RotatingCrossbarFabric:
    """The fabric stage of :class:`~repro.router.router.RawRouter`."""

    def __init__(self, router):
        self.router = router

    def _fault_quantum_prologue(self) -> Generator:
        """Per-quantum fault bookkeeping; only runs with faults armed.

        Three jobs, in dependency order: acknowledge freshly dead ports
        (closing their reconvergence records), detect and repair a lost
        token (the fixed-length regeneration protocol of
        :class:`~repro.faults.recovery.TokenRecovery`), and clear
        dead-port traffic -- everything queued *at* a dead input, and any
        live input's stale head still addressed *to* a dead port from
        before the routing layer reconverged.
        """
        router = self.router
        sim = router.sim
        stats = router.stats
        timing = router.timing
        recovery = router.token_recovery
        degraded = router.degraded
        resilience = router.resilience

        if router._dead_pending:
            for port in router._dead_pending:
                degraded.converged(port, sim.now)
            router._dead_pending.clear()

        if recovery.lost:
            for _ in range(recovery.recovery_quanta()):
                stats.quanta += 1
                stats.idle_quanta += 1
                yield Timeout(idle_quantum_cycles(timing), BUSY)
            recovery.recover(router.token, sim.now)

        if degraded.any_dead:
            for port in range(router.num_ports):
                queue = router.input_queues[port]
                if not degraded.alive(port):
                    while True:
                        ok, _frag = sim.try_get(queue)
                        if not ok:
                            break
                        stats.dead_port_drops += 1
                        resilience.record_drop("dead_port")
                else:
                    while True:
                        ready, frag = sim.peek(queue)
                        if not ready or degraded.alive(frag.dest):
                            break
                        sim.try_get(queue)
                        stats.dead_port_drops += 1
                        resilience.record_drop("dead_port")

    def run(self) -> Generator:
        router = self.router
        sim = router.sim
        stats = router.stats
        allocator = router.allocator
        token = router.token
        timing = router.timing
        n = router.num_ports
        transform = router.transform
        # The control phases' cycles; each quantum adds its longest body.
        control = quantum_cycles(0, 0, timing, router.pipelined, costs=router.costs)
        quanta = {}  # quantum duration -> its Timeout (see ingress)
        tel = _telemetry.RECORDER

        while True:
            if router.faults_on:
                yield from self._fault_quantum_prologue()

            # Headers phase: inspect (do not consume) each input's HOL.
            heads: List[Optional[QuantumFragment]] = []
            for port in range(n):
                ready, frag = sim.peek(router.input_queues[port])
                heads.append(frag if ready else None)
            requests = tuple(f.dest if f is not None else None for f in heads)

            if all(r is None for r in requests):
                # One idle control quantum (headers exchanged, all empty),
                # then park until an ingress enqueues something -- the
                # real tiles would keep spinning header exchanges, which
                # changes nothing observable but would keep the event
                # queue alive forever after finite sources drain.
                stats.quanta += 1
                stats.idle_quanta += 1
                yield Timeout(idle_quantum_cycles(timing), BUSY)
                token.advance()
                if tel is not None:
                    tel.events.emit(sim.now, EV_TOKEN_PASS, "fabric", token.master)
                    tel.registry.maybe_snapshot(sim.now)
                ready, _ = sim.peek(router.fabric_wake)
                if ready:
                    sim.try_get(router.fabric_wake)
                    continue
                if all(not router.input_queues[p].occupancy for p in range(n)):
                    yield Get(router.fabric_wake)
                continue
            sim.try_get(router.fabric_wake)  # absorb stale wake tokens

            if router.schedule is not None:
                _, alloc = router.schedule.lookup(requests, token.master)
            else:
                alloc = allocator.allocate(requests, token.master)

            body = 0
            for grant in alloc.grants.values():
                frag = heads[grant.src]
                w = frag.words * (transform.cycles_per_word if transform else 1)
                body = max(body, w + grant.expansion)
            duration = control + body
            stats.quanta += 1
            stats.blocked_grants += len(alloc.blocked)
            stats.grant_histogram[alloc.num_granted] += 1
            if tel is not None:
                tel.events.emit(
                    sim.now, EV_XBAR_CONFIG, "fabric",
                    (token.master,
                     tuple(sorted((g.src, g.dst) for g in alloc.grants.values()))),
                )
                tel.registry.count("fabric.xbar_configs")
            quantum = quanta.get(duration)
            if quantum is None:
                quantum = quanta[duration] = Timeout(duration, BUSY)
            yield quantum

            for grant in alloc.grants.values():
                ok, frag = sim.try_get(router.input_queues[grant.src])
                if not ok:
                    # Only reachable under fault injection: the input
                    # link went down after the headers phase, deferring
                    # the granted fragment past this quantum.  It stays
                    # queued and re-arbitrates once the link restores.
                    assert router.faults_on, "granted input queue emptied mid-quantum"
                    continue
                if transform is not None and frag.is_last:
                    frag.packet.payload = tuple(
                        transform.apply(frag.packet.payload)
                    )
                # Blocks when the egress queue is full: output blocking.
                yield Put(router.egress_queues[grant.dst], frag)
                if tel is not None:
                    tel.journeys.hop(id(frag.packet), sim.now)
                    tel.events.emit(sim.now, EV_PKT_HOP, "fabric", grant.dst)
            token.advance()
            if tel is not None:
                tel.events.emit(sim.now, EV_TOKEN_PASS, "fabric", token.master)
                tel.registry.maybe_snapshot(sim.now)
