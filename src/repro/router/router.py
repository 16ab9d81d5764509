"""Assembly of the phase-level Raw router.

:class:`RawRouter` wires one ingress, one egress, the shared Rotating
Crossbar fabric, the routing table, and the measurement state into a
kernel simulation; two feeding modes cover the thesis's experiments:

* ``attach_saturated`` -- every input always has the next packet ready
  (the peak / average throughput regime of sections 7.2-7.3);
* ``attach_linecards`` -- paced line-card sources at a chosen offered
  load (latency-vs-load sweeps, drop behaviour).

The design generalizes the prototype along the axes the thesis's future
work names: ``num_ports`` beyond 4 (section 8.5), a
:class:`~repro.core.token.WeightedToken` for QoS (8.7), a payload
:class:`~repro.core.compute.StreamTransform` (8.3), and the second
static network via ``networks=2`` (8.1).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import CostModel, SimConfig
from repro.faults.inject import FaultInjector
from repro.faults.plan import PlanLike, resolve_plan
from repro.faults.recovery import DegradedRouting, TokenRecovery
from repro.metrics.resilience import ResilienceMetrics
from repro.core.allocator import Allocator
from repro.core.compute import StreamTransform
from repro.core.phases import DEFAULT_TIMING, PhaseTiming
from repro.core.ring import RingGeometry
from repro.core.scheduler import CompiledSchedule
from repro.core.token import RotatingToken
from repro.ip.lookup import RoutingTable
from repro.router.egress import EgressProcessor
from repro.router.fabric import RotatingCrossbarFabric
from repro.router.ingress import IngressProcessor
from repro.router.linecard import LineCardSource
from repro.router.stats import RouterStats
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.telemetry import runtime as _telemetry
from repro.traffic.model import TrafficModel
from repro.traffic.workload import PacketFactory


class RouterResult:
    """What a router run measured."""

    def __init__(self, stats: RouterStats, cycles: int):
        self.stats = stats
        self.cycles = cycles

    @property
    def gbps(self) -> float:
        return self.stats.gbps(self.cycles)

    @property
    def mpps(self) -> float:
        return self.stats.mpps(self.cycles)

    @property
    def packets(self) -> int:
        return self.stats.delivered_packets

    def latency_summary(self):
        return self.stats.latency.summary()


class RawRouter:
    """The 4-port (or N-port) single-chip router, phase-level model."""

    def __init__(
        self,
        num_ports: int = 4,
        table: Optional[RoutingTable] = None,
        trace: Optional[Trace] = None,
        networks: int = 1,
        max_quantum_words: Optional[int] = None,
        timing: Optional[PhaseTiming] = None,
        pipelined: bool = True,
        transform: Optional[StreamTransform] = None,
        token: Optional[RotatingToken] = None,
        schedule: Optional[CompiledSchedule] = None,
        input_queue_frags: int = 64,
        egress_queue_frags: int = 8,
        warmup_cycles: int = 0,
        costs: CostModel = CostModel.default(),
    ):
        self.costs = costs
        self.num_ports = num_ports
        self.table = table or RoutingTable.uniform_split(num_ports)
        self.sim = Simulator(trace=trace)
        self.ring = RingGeometry(num_ports)
        self.allocator = Allocator(self.ring, networks=networks)
        self.token = token or RotatingToken(num_ports)
        if timing is None:
            timing = (
                DEFAULT_TIMING
                if costs.quantum_ctl_overhead == DEFAULT_TIMING.control_total
                else PhaseTiming.for_model(costs)
            )
        self.timing = timing
        self.pipelined = pipelined
        self.transform = transform
        self.schedule = schedule
        self.max_quantum_words = (
            costs.max_quantum_words if max_quantum_words is None else max_quantum_words
        )
        self.stats = RouterStats(
            num_ports=num_ports, warmup_cycles=warmup_cycles, costs=costs
        )

        self.input_queues = [
            self.sim.channel(f"inq{p}", capacity=input_queue_frags)
            for p in range(num_ports)
        ]
        self.egress_queues = [
            self.sim.channel(f"eq{p}", capacity=egress_queue_frags)
            for p in range(num_ports)
        ]
        #: Doorbell the ingresses ring so a parked (all-idle) fabric wakes.
        self.fabric_wake = self.sim.channel("fabric_wake", capacity=1)
        self._fabric_started = False
        self._attached = False

        tel = _telemetry.RECORDER
        if tel is not None:
            for p, q in enumerate(self.input_queues):
                tel.registry.gauge(
                    f"ingress.{p}.queue_depth", lambda q=q: q.occupancy
                )
            for p, q in enumerate(self.egress_queues):
                tel.registry.gauge(
                    f"egress.{p}.queue_depth", lambda q=q: q.occupancy
                )
            self.stats.register_views(tel.registry)

        # Fault-injection state: all None/False until install_faults(),
        # so the fault-free pipeline takes zero extra branches that matter.
        self.faults_on = False
        self.injector: Optional[FaultInjector] = None
        self.resilience: Optional[ResilienceMetrics] = None
        self.degraded: Optional[DegradedRouting] = None
        self.token_recovery: Optional[TokenRecovery] = None
        self._dead_pending: List[int] = []
        self._injector_started = False

    @classmethod
    def from_config(
        cls,
        config: SimConfig,
        trace: Optional[Trace] = None,
        warmup_cycles: int = 0,
        **overrides,
    ) -> "RawRouter":
        """Build a router from a :class:`~repro.config.SimConfig` value."""
        return cls(
            num_ports=config.ports,
            trace=trace,
            networks=config.networks,
            pipelined=config.pipelined,
            input_queue_frags=config.input_queue_frags,
            egress_queue_frags=config.egress_queue_frags,
            warmup_cycles=warmup_cycles,
            costs=config.cost_model(),
            **overrides,
        )

    # -- fault injection (repro.faults) --------------------------------
    def install_faults(
        self, plan: PlanLike, metrics: Optional[ResilienceMetrics] = None
    ) -> Optional[FaultInjector]:
        """Arm a fault plan; call before attaching sources.

        None or an empty plan is a no-op (the router stays on its
        fault-free fast path).  Returns the injector, whose process is
        attached lazily on the first :meth:`run` so that late-built
        channels (line cards) are targetable.
        """
        plan = resolve_plan(plan)
        if plan is None:
            return None
        if self._attached:
            raise RuntimeError("install_faults() must precede source attach")
        self.resilience = metrics if metrics is not None else ResilienceMetrics()
        tel = _telemetry.RECORDER
        if tel is not None:
            self.resilience.register_views(tel.registry)
        self.degraded = DegradedRouting(self.num_ports, self.resilience)
        self.token_recovery = TokenRecovery(self.num_ports, self.resilience)
        registry = {}
        for p in range(self.num_ports):
            registry[f"input:{p}"] = self.input_queues[p]
            registry[f"egress:{p}"] = self.egress_queues[p]
        self.injector = FaultInjector(
            plan,
            channels=registry,
            channel_for=self._fault_channel_for,
            corrupt=self._fault_corrupt,
            on_token_loss=lambda ev, cycle: self.token_recovery.lose(cycle),
            on_port_down=self._fault_port_down,
            metrics=self.resilience,
        )
        self.faults_on = True
        return self.injector

    def _fault_channel_for(self, ev):
        """Resolve an event's channel: registry first, then the port-scoped
        conventions (a stalled tile silences its ingress feed; an overrun
        line card stops draining its egress queue)."""
        ch = self.injector.channels.get(ev.target)
        if ch is not None:
            return ch
        p = ev.port
        if p is not None and 0 <= p < self.num_ports:
            if ev.kind in ("stall", "link_down", "corrupt"):
                return self.input_queues[p]
            if ev.kind == "overload":
                return self.egress_queues[p]
        return None

    def _fault_corrupt(self, frag, param: int):
        """Single-word header corruption: flip one bit of the in-flight
        fragment's destination address *without* patching the checksum --
        exactly what the egress-side verification exists to catch."""
        frag.packet.dst ^= 1 << (param % 32)
        return frag

    def _fault_port_down(self, ev, cycle: int) -> None:
        port = ev.port
        if port is None or not 0 <= port < self.num_ports:
            return
        if self.degraded.kill(port):
            # The fabric acknowledges (and closes the recovery record)
            # at its next quantum boundary -- the reconvergence delay.
            self._dead_pending.append(port)

    # ------------------------------------------------------------------
    def _start_fabric_and_egress(self) -> None:
        if self._fabric_started:
            return
        fabric = RotatingCrossbarFabric(self)
        self.sim.add_process(fabric.run(), name="fabric", trace_key="fabric")
        for port in range(self.num_ports):
            eg = EgressProcessor(port, self)
            self.sim.add_process(
                eg.run(), name=f"egress{port}", trace_key=f"egress{port}"
            )
        self._fabric_started = True

    def attach_saturated(self, workload: TrafficModel, factory: PacketFactory) -> None:
        """Every ingress always has its next packet ready (peak regime)."""
        if self._attached:
            raise RuntimeError("router already has attached sources")
        self._start_fabric_and_egress()
        for port in range(self.num_ports):

            def supply(p: int = port):
                pkt = factory.from_workload(workload, p)
                if pkt is not None:
                    pkt.arrival_cycle = self.sim.now
                return pkt

            ing = IngressProcessor(port, self, supply=supply)
            self.sim.add_process(
                ing.run(), name=f"ingress{port}", trace_key=f"ingress{port}"
            )
        self._attached = True

    def attach_linecards(
        self,
        workload: TrafficModel,
        factory: PacketFactory,
        offered_load: float,
        rng: np.random.Generator,
        packets_per_port: Optional[int] = None,
        line_buffer_packets: int = 32,
    ) -> List[LineCardSource]:
        """Paced line-card sources at ``offered_load`` of line rate."""
        if self._attached:
            raise RuntimeError("router already has attached sources")
        self._start_fabric_and_egress()
        sources: List[LineCardSource] = []
        for port in range(self.num_ports):
            line_in = self.sim.channel(f"line{port}", capacity=line_buffer_packets)
            if self.injector is not None:
                self.injector.channels[f"line:{port}"] = line_in

            def make(p: int = port):
                return factory.from_workload(workload, p)

            src = LineCardSource(
                port,
                line_in,
                make,
                offered_load,
                rng,
                count=packets_per_port,
                stats=self.stats,
                resilience=self.resilience,
            )
            self.sim.add_process(src.run(self.sim), name=f"linecard{port}")
            ing = IngressProcessor(port, self, line_in=line_in)
            self.sim.add_process(
                ing.run(), name=f"ingress{port}", trace_key=f"ingress{port}"
            )
            sources.append(src)
        self._attached = True
        return sources

    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: Optional[int] = None,
        target_packets: Optional[int] = None,
        chunk: int = 20_000,
    ) -> RouterResult:
        """Advance until ``max_cycles`` or ``target_packets`` deliveries.

        ``target_packets`` runs in ``chunk``-cycle slices, so the result
        may overshoot the target by up to one slice's worth of packets.
        """
        if not self._attached:
            raise RuntimeError("attach a traffic source before running")
        if max_cycles is None and target_packets is None:
            raise ValueError("need a stopping condition")
        if self.injector is not None and not self._injector_started:
            self.injector.attach(self.sim)
            self._injector_started = True
        while True:
            if max_cycles is not None:
                self.sim.run(until=max_cycles, raise_on_deadlock=False)
                break
            before = self.stats.delivered_packets
            before_now = self.sim.now
            self.sim.run(until=self.sim.now + chunk, raise_on_deadlock=False)
            if self.stats.delivered_packets >= target_packets:
                break
            if self.stats.delivered_packets == before and self.sim.now == before_now:
                # Sources exhausted and the pipeline has fully drained.
                break
        return RouterResult(self.stats, self.sim.now)
