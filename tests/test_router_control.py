"""Control plane: route updates while the data plane forwards."""

import numpy as np
import pytest

from repro.ip.addr import Prefix
from repro.ip.lookup import RoutingTable
from repro.router import NetworkProcessor, RawRouter, RouteUpdate
from repro.traffic import PacketFactory, SpecModel, spec_from_legacy


def running_router(seed=0, table=None):
    router = RawRouter(table=table, warmup_cycles=0)
    model = SpecModel(spec_from_legacy("uniform", 256), n=4, seed=seed)
    router.attach_saturated(model, PacketFactory(4, seed))
    return router


class TestRouteUpdate:
    def test_withdraw_flag(self):
        p = Prefix.parse("10.0.0.0/8")
        assert RouteUpdate(0, p, None).is_withdraw
        assert not RouteUpdate(0, p, 2).is_withdraw


class TestNetworkProcessor:
    def test_updates_applied_in_order_at_time(self):
        router = running_router()
        p1 = Prefix.parse("10.0.0.0/8")
        p2 = Prefix.parse("20.0.0.0/8")
        np_ = NetworkProcessor(
            router,
            [RouteUpdate(5_000, p1, 1), RouteUpdate(15_000, p2, 2)],
        )
        np_.attach()
        router.run(max_cycles=30_000)
        assert np_.log.count() == 2
        (t1, u1), (t2, u2) = np_.log.applied
        assert t1 >= 5_000 and t2 >= 15_000 and t1 < t2
        assert router.table.lookup(p1.address) == 1
        assert router.table.lookup(p2.address) == 2

    def test_withdraw_removes_route(self):
        table = RoutingTable.uniform_split(4)
        spec = Prefix.parse("10.0.0.0/8")
        table.add_route(spec, 3)
        router = running_router(table=table)
        NetworkProcessor(router, [RouteUpdate(4_000, spec, None)]).attach()
        router.run(max_cycles=20_000)
        # Falls back to the covering /2 route.
        assert router.table.lookup(spec.address) == 0

    def test_traffic_keeps_flowing_through_updates(self):
        router = running_router()
        updates = [
            RouteUpdate(2_000 * i, Prefix(i << 24, 8), i % 4) for i in range(1, 9)
        ]
        np_ = NetworkProcessor(router, updates)
        np_.attach()
        res = router.run(max_cycles=40_000)
        assert np_.log.count() == 8
        assert res.packets > 200  # the data plane never stalled

    def test_delivery_matches_table_at_lookup_time(self):
        """Shift a prefix from port 1 to port 2 mid-run; every packet to
        that prefix must exit on whichever port the table said when the
        Lookup Processor resolved it (no torn/misrouted packets)."""
        table = RoutingTable.uniform_split(4)
        moved = Prefix.parse("64.0.0.0/8")  # inside port 1's quarter
        table.add_route(moved, 1)
        rng = np.random.default_rng(1)
        # Shallow input queues: with all traffic serialized onto one
        # output, deep queues would hold a pre-flip backlog longer than
        # the run.
        router = RawRouter(table=table, warmup_cycles=0, input_queue_frags=4)

        class MovedPrefixWorkload:
            """All traffic targets the moved prefix."""

            deterministic = True

            def next_packet(self, port):
                return 1, 256  # nominal; the factory address decides truth

        factory = PacketFactory(4, 1)
        delivered = []
        real_make = factory.make

        def make_to_moved(inp, outp, size):
            pkt = real_make(inp, outp, size)
            pkt.dst = moved.random_member(rng)
            pkt.fill_checksum()
            delivered.append(pkt)
            return pkt

        factory.make = make_to_moved
        router.attach_saturated(MovedPrefixWorkload(), factory)
        flip_at = 15_000
        NetworkProcessor(router, [RouteUpdate(flip_at, moved, 2)]).attach()
        router.run(max_cycles=80_000)
        done = [p for p in delivered if p.departure_cycle >= 0]
        assert len(done) > 50
        assert {p.output_port for p in done} == {1, 2}
        for pkt in done:
            # Packets looked up well before the flip must use port 1,
            # well after it port 2 (the flip applies within ~1k cycles;
            # queueing separates lookup from arrival by a few quanta).
            if pkt.arrival_cycle < flip_at - 4_000:
                assert pkt.output_port == 1, pkt.arrival_cycle
            elif pkt.arrival_cycle > flip_at + 4_000:
                assert pkt.output_port == 2, pkt.arrival_cycle
