"""The Click-style modular router baseline."""

import pytest

from repro.baselines.click import (
    CheckIPHeader,
    ClickContext,
    ClickRouter,
    DecIPTTL,
    Discard,
    FromDevice,
    LookupIPRoute,
    Queue,
    ToDevice,
    standard_ip_router,
)
from repro.config import SimConfig
from repro.ip.lookup import RoutingTable
from repro.ip.packet import IPv4Packet
from repro.traffic.build import router_traffic
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec


def make_packets(n, size=64, seed=0):
    spec = TrafficSpec(
        pattern=PatternSpec(kind="uniform", exclude_self=False),
        sizes=SizeSpec(bytes=size),
    )
    model, factory, _ = router_traffic(spec, SimConfig(seed=seed))
    return [(i % 4, factory.from_workload(model, i % 4)) for i in range(n)]


class TestElements:
    def test_unconnected_output_raises(self):
        ctx = ClickContext()
        fd = FromDevice()
        with pytest.raises(RuntimeError):
            fd.inject(ctx, IPv4Packet.synthesize(1, 2, 64))

    def test_bad_port_wiring_rejected(self):
        with pytest.raises(ValueError):
            FromDevice().connect(1, Discard())
        with pytest.raises(ValueError):
            FromDevice().connect(0, Discard(), in_port=3)

    def test_checkipheader_drops_bad_checksum(self):
        ctx = ClickContext()
        chk = CheckIPHeader()
        q = Queue()
        chk.connect(0, q)
        chk.connect(1, Discard())
        pkt = IPv4Packet.synthesize(1, 2, 64)
        pkt.checksum ^= 0xFFFF
        chk._enter(ctx, pkt, 0)
        assert ctx.dropped == 1
        assert q.pull(ctx) is None

    def test_decttl_expires(self):
        ctx = ClickContext()
        ttl = DecIPTTL()
        q = Queue()
        ttl.connect(0, q)
        ttl.connect(1, Discard())
        pkt = IPv4Packet.synthesize(1, 2, 64, ttl=1)
        ttl._enter(ctx, pkt, 0)
        assert ctx.dropped == 1

    def test_decttl_patches_checksum(self):
        ctx = ClickContext()
        ttl = DecIPTTL()
        q = Queue()
        ttl.connect(0, q)
        ttl.connect(1, Discard())
        pkt = IPv4Packet.synthesize(1, 2, 64, ttl=9)
        ttl._enter(ctx, pkt, 0)
        out = q.pull(ctx)
        assert out.ttl == 8
        assert out.checksum_ok()

    def test_lookup_routes_to_port(self):
        ctx = ClickContext()
        table = RoutingTable.uniform_split(4)
        lk = LookupIPRoute(table, 4)
        queues = [Queue() for _ in range(4)]
        for p, q in enumerate(queues):
            lk.connect(p, q)
        pkt = IPv4Packet.synthesize(1, 0xC0000001, 64)  # top quarter -> 3
        lk._enter(ctx, pkt, 0)
        assert queues[3].pull(ctx) is pkt

    def test_queue_drop_tail(self):
        ctx = ClickContext()
        q = Queue(capacity=2)
        for i in range(4):
            q._enter(ctx, IPv4Packet.synthesize(1, 2, 64), 0)
        assert q.drops == 2
        assert ctx.dropped == 2


class TestStandardRouter:
    def test_forwards_everything_valid(self):
        router = standard_ip_router(4)
        pkts = make_packets(100)
        res = router.run_packets(pkts)
        assert res.packets == 100
        assert router.ctx.dropped == 0

    def test_cycles_accumulate(self):
        router = standard_ip_router(4)
        res = router.run_packets(make_packets(10))
        assert res.cycles > 10 * 1000  # >1k cycles per packet on a PC

    def test_calibration_64B_near_click_bar(self):
        """The thesis's Fig 7-1 Click bar: ~0.23 Gbps at 64 B."""
        router = standard_ip_router(4)
        res = router.run_packets(make_packets(1500, size=64))
        assert res.gbps == pytest.approx(0.23, rel=0.12)

    def test_large_packets_stay_under_2gbps(self):
        """A PC-class router is still memory-bound at 1024 B -- far
        below the Raw router at the same size."""
        router = standard_ip_router(4)
        res = router.run_packets(make_packets(600, size=1024))
        assert 1.0 < res.gbps < 2.5

    def test_rate_is_per_packet_dominated(self):
        small = standard_ip_router(4).run_packets(make_packets(800, size=64))
        large = standard_ip_router(4).run_packets(make_packets(800, size=1024))
        # kpps barely moves across a 16x size change (per-packet bound).
        assert small.kpps / large.kpps < 3.0

    def test_bad_packets_dropped_not_forwarded(self):
        router = standard_ip_router(4)
        pkts = make_packets(20)
        for _, p in pkts[:5]:
            p.checksum ^= 0x1
        res = router.run_packets(pkts)
        assert res.packets == 15
        assert router.ctx.dropped == 5
