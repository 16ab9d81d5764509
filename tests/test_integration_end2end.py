"""End-to-end integration: the whole stack against realistic scenarios.

These tests cross every module boundary at once: traffic generation ->
packet minting -> line cards -> ingress (checksum/TTL/lookup over a real
prefix table) -> fragmentation -> Rotating Crossbar -> reassembly ->
egress metering, on both router engines where feasible.
"""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.ip.addr import Prefix, random_prefixes
from repro.ip.lookup import RoutingTable
from repro.router import RawRouter
from repro.traffic.build import router_traffic
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec


def uniform(size, seed):
    """(model, factory) for saturated uniform ``size``-byte traffic."""
    spec = TrafficSpec(pattern=PatternSpec(kind="uniform"),
                       sizes=SizeSpec(bytes=size))
    model, factory, _ = router_traffic(spec, SimConfig(seed=seed))
    return model, factory


class TestRealPrefixTable:
    def test_specific_routes_override_split(self):
        """Customer prefixes land on their configured ports, everything
        else follows the covering split -- through the full router."""
        table = RoutingTable.uniform_split(4)
        customer = Prefix.parse("10.20.0.0/16")
        table.add_route(customer, 3)  # 10/8 block is in port 0's quarter
        rng = np.random.default_rng(0)
        router = RawRouter(table=table, warmup_cycles=0)

        workload, factory = uniform(256, 0)
        minted = []
        real_make = factory.make

        def make(inp, outp, size):
            pkt = real_make(inp, outp, size)
            if len(minted) % 3 == 0:  # every third packet hits the customer
                pkt.dst = customer.random_member(rng)
                pkt.fill_checksum()
            minted.append(pkt)
            return pkt

        factory.make = make
        router.attach_saturated(workload, factory)
        router.run(max_cycles=60_000)
        done = [p for p in minted if p.departure_cycle >= 0]
        customer_pkts = [p for p in done if customer.matches(p.dst)]
        other_pkts = [p for p in done if not customer.matches(p.dst)]
        assert len(customer_pkts) > 20 and len(other_pkts) > 20
        assert all(p.output_port == 3 for p in customer_pkts)
        for p in other_pkts:
            assert p.output_port == p.dst >> 30  # the split rule

    def test_large_random_table(self):
        """5,000 random prefixes; every delivered packet matches an
        oracle LPM over the same table."""
        rng = np.random.default_rng(1)
        prefixes = random_prefixes(5000, rng)
        routes = [(p, i % 4) for i, p in enumerate(prefixes)]
        table = RoutingTable.from_routes(routes, default_port=0)
        router = RawRouter(table=table, warmup_cycles=0)
        workload, factory = uniform(128, 1)
        minted = []
        real_make = factory.make

        def make(inp, outp, size):
            pkt = real_make(inp, outp, size)
            if rng.random() < 0.5:
                p, _ = routes[int(rng.integers(0, len(routes)))]
                pkt.dst = p.random_member(rng)
                pkt.fill_checksum()
            minted.append(pkt)
            return pkt

        factory.make = make
        router.attach_saturated(workload, factory)
        router.run(max_cycles=40_000)
        done = [p for p in minted if p.departure_cycle >= 0]
        assert len(done) > 100
        for pkt in done:
            assert pkt.output_port == table.lookup(pkt.dst)


class TestMixedTraffic:
    def test_imix_bursty_run(self):
        """IMIX sizes + bursty destinations: the messy-traffic smoke
        test; conservation and monotone timestamps must survive."""
        spec = TrafficSpec(
            pattern=PatternSpec(kind="bursty", mean_burst=6.0),
            sizes=SizeSpec(kind="imix"),
        )
        config = SimConfig(ports=4, seed=2)
        traffic, factory, offered_load = router_traffic(spec, config)
        assert offered_load is None  # saturated: every ingress always has a packet
        router = RawRouter(warmup_cycles=5_000)
        router.attach_saturated(traffic, factory)
        res = router.run(max_cycles=150_000)
        assert res.packets > 200
        assert sum(router.stats.per_port_delivered) == res.packets
        assert 5.0 < res.gbps < 27.0
        lat = router.stats.latency.summary()
        assert lat["p99_cycles"] >= lat["p50_cycles"] > 0

    def test_jumbo_reassembly_content(self):
        """4,096-byte packets cross in 4 quanta; the *content* must
        survive fragmentation interleaved across four inputs."""
        router = RawRouter(warmup_cycles=0)
        workload, factory = uniform(4096, 3)
        minted = []
        real_make = factory.make

        def make(inp, outp, size):
            pkt = real_make(inp, outp, size)
            minted.append((pkt, tuple(pkt.payload)))
            return pkt

        factory.make = make
        router.attach_saturated(workload, factory)
        router.run(max_cycles=120_000)
        done = [(p, pay) for p, pay in minted if p.departure_cycle >= 0]
        assert len(done) > 40
        for pkt, payload in done:
            assert tuple(pkt.payload) == payload  # untouched by transit
            assert pkt.checksum_ok()
            assert pkt.ttl == 63


class TestEnginesAgree:
    @pytest.mark.parametrize("size", [64, 1024])
    def test_wordlevel_vs_phase_peak(self, size):
        """Both fidelities within a 25% band at the Fig 7-1 endpoints
        (word-level carries extra, documented, serialization)."""
        from repro.router.wordlevel import WordLevelRouter
        from repro.traffic.build import wordlevel_source

        spec = TrafficSpec(sizes=SizeSpec(bytes=size))  # port i -> i + 2
        config = SimConfig(seed=4)
        phase = RawRouter(warmup_cycles=10_000)
        model, factory, _ = router_traffic(spec, config)
        phase.attach_saturated(model, factory)
        phase_gbps = phase.run(max_cycles=100_000).gbps
        word = WordLevelRouter(wordlevel_source(spec, config))
        word_gbps = word.run(until_cycles=30_000, warmup_cycles=8_000).gbps
        assert word_gbps == pytest.approx(phase_gbps, rel=0.25)
