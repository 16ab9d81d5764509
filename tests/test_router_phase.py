"""The phase-level router: pipelines, conservation, drops, extensions."""

import numpy as np
import pytest

from repro.core.compute import XorCipher
from repro.core.token import WeightedToken
from repro.ip.lookup import RoutingTable
from repro.router import RawRouter
from repro.traffic import PacketFactory, SpecModel, spec_from_legacy


def traffic(pattern, size, seed, ports=4, **kw):
    """(model, factory) drawing a saturated ``size``-byte spec."""
    spec = spec_from_legacy(pattern, size, **kw)
    return SpecModel(spec, n=ports, seed=seed), PacketFactory(ports, seed)


def saturated_router(size=1024, seed=0, **kw):
    router = RawRouter(**kw)
    router.attach_saturated(*traffic("permutation", size, seed))
    return router


class TestPeakThroughput:
    def test_matches_paper_1024(self):
        router = saturated_router(size=1024, warmup_cycles=20_000)
        res = router.run(max_cycles=250_000)
        assert res.gbps == pytest.approx(26.9, rel=0.03)
        assert res.mpps == pytest.approx(3.3, rel=0.03)

    def test_matches_paper_64(self):
        router = saturated_router(size=64, warmup_cycles=20_000)
        res = router.run(max_cycles=150_000)
        assert res.gbps == pytest.approx(7.3, rel=0.12)

    def test_agrees_with_fabric_simulator(self):
        """The full pipeline's bottleneck is the fabric: both engines
        report the same saturated rate."""
        from repro.core.fabricsim import FabricSimulator, saturated_permutation

        router = saturated_router(size=512, warmup_cycles=20_000)
        full = router.run(max_cycles=250_000).gbps
        fabric = FabricSimulator().run(
            saturated_permutation(128, 2), quanta=1500, warmup_quanta=100
        ).gbps
        assert full == pytest.approx(fabric, rel=0.02)


class TestConservationAndCorrectness:
    def test_packets_counted_per_port(self):
        router = saturated_router(size=256, warmup_cycles=0)
        res = router.run(max_cycles=100_000)
        assert sum(router.stats.per_port_delivered) == res.packets
        assert res.packets > 100

    def test_delivered_to_lpm_port(self):
        """Every delivered packet left on the port the routing table
        says -- the traffic intent survives lookup and switching."""
        router = RawRouter(warmup_cycles=0)
        workload, factory = traffic("uniform", 256, 1)
        delivered = []
        real_make = factory.make

        def tracking(inp, outp, size):
            pkt = real_make(inp, outp, size)
            delivered.append(pkt)
            return pkt

        factory.make = tracking
        router.attach_saturated(workload, factory)
        router.run(max_cycles=60_000)
        table = router.table
        done = [p for p in delivered if p.departure_cycle >= 0]
        assert len(done) > 50
        for pkt in done:
            assert table.lookup(pkt.dst) == pkt.output_port
            assert pkt.ttl == 63  # decremented exactly once

    def test_latency_positive_and_ordered(self):
        router = saturated_router(size=256, warmup_cycles=5_000)
        router.run(max_cycles=100_000)
        summary = router.stats.latency.summary()
        assert summary["mean_cycles"] > 256  # at least a store+forward
        assert summary["p99_cycles"] >= summary["p50_cycles"]


class TestFragmentationPath:
    def test_jumbo_packets_reassembled(self):
        """2,048-byte packets exceed the 256-word transfer block: two
        crossbar quanta per packet, reassembled at egress."""
        router = saturated_router(size=2048, warmup_cycles=10_000)
        res = router.run(max_cycles=200_000)
        assert res.packets > 50
        # Throughput stays near the 1,024B rate (overhead per quantum).
        assert res.gbps == pytest.approx(26.9, rel=0.06)
        # 2 fragments per packet, up to 4 grants per quantum.
        assert router.stats.quanta * 4 >= 2 * res.packets


class TestDropPaths:
    def test_ttl_expired_dropped(self):
        router = RawRouter(warmup_cycles=0)
        workload, factory = traffic("permutation", 64, 2, shift=1)
        real_make = factory.make
        factory.make = lambda i, o, s: (
            lambda p: (setattr(p, "ttl", 1), p.fill_checksum(), p)[-1]
        )(real_make(i, o, s))
        router.attach_saturated(workload, factory)
        res = router.run(max_cycles=30_000)
        assert res.packets == 0
        assert router.stats.ttl_drops > 0

    def test_bad_checksum_dropped(self):
        router = RawRouter(warmup_cycles=0)
        workload, factory = traffic("permutation", 64, 2, shift=1)
        real_make = factory.make

        def corrupt(i, o, s):
            p = real_make(i, o, s)
            p.checksum ^= 0xAAAA
            return p

        factory.make = corrupt
        router.attach_saturated(workload, factory)
        res = router.run(max_cycles=30_000)
        assert res.packets == 0
        assert router.stats.checksum_drops > 0


class TestLineCards:
    def test_light_load_lossless(self):
        router = RawRouter(warmup_cycles=0)
        workload, factory = traffic("uniform", 256, 3)
        sources = router.attach_linecards(
            workload, factory, offered_load=0.3,
            rng=np.random.default_rng(3), packets_per_port=100,
        )
        res = router.run(target_packets=390)
        assert res.packets >= 390
        assert sum(s.dropped for s in sources) == 0

    def test_overload_drops_at_linecard(self):
        router = RawRouter(warmup_cycles=0)
        workload, factory = traffic("hotspot", 1024, 4, hot_port=0, p_hot=1.0)
        sources = router.attach_linecards(
            workload, factory, offered_load=0.9,
            rng=np.random.default_rng(4), packets_per_port=150,
            line_buffer_packets=4,
        )
        router.run(max_cycles=600_000)
        assert sum(s.dropped for s in sources) > 0
        assert router.stats.line_drops == sum(s.dropped for s in sources)

    def test_double_attach_rejected(self):
        router = saturated_router()
        with pytest.raises(RuntimeError):
            router.attach_saturated(*traffic("permutation", 64, 0, shift=1))

    def test_run_needs_attachment(self):
        router = RawRouter()
        with pytest.raises(RuntimeError):
            router.run(max_cycles=10)

    def test_run_needs_stop_condition(self):
        router = saturated_router()
        with pytest.raises(ValueError):
            router.run()


class TestExtensions:
    def test_qos_weighted_token_in_router(self):
        router = RawRouter(
            token=WeightedToken([4, 1, 1, 1]), warmup_cycles=10_000
        )
        router.attach_saturated(
            *traffic("hotspot", 256, 5, hot_port=0, p_hot=1.0)
        )
        router.run(max_cycles=400_000)
        share = router.stats.input_share()
        assert share[0] == pytest.approx(4 / 7, rel=0.10)
        # Everything left on the hotspot output.
        assert router.stats.port_share()[0] == pytest.approx(1.0)

    def test_transform_slows_body_streaming(self):
        from repro.core.phases import quantum_cycles

        plain = saturated_router(size=1024, warmup_cycles=10_000)
        base = plain.run(max_cycles=150_000).gbps
        enc = saturated_router(
            size=1024, warmup_cycles=10_000, transform=XorCipher(3)
        )
        cipher_rate = enc.run(max_cycles=150_000).gbps
        # Body stretches to words x 2; control overhead is unchanged.
        expected = base * quantum_cycles(256, 2) / quantum_cycles(512, 2)
        assert cipher_rate == pytest.approx(expected, rel=0.03)

    def test_second_network_config_runs(self):
        router = saturated_router(size=256, networks=2, warmup_cycles=5_000)
        res = router.run(max_cycles=80_000)
        assert res.gbps > 10

    def test_compiled_schedule_engine_matches_allocator(self):
        """Running the fabric off the chapter-6 jump table gives the
        same throughput as evaluating the rule directly."""
        from repro.core.ring import RingGeometry
        from repro.core.scheduler import CompileTimeScheduler

        schedule = CompileTimeScheduler(RingGeometry(4)).compile()
        direct = saturated_router(size=512, warmup_cycles=10_000)
        via_table = saturated_router(
            size=512, warmup_cycles=10_000, schedule=schedule
        )
        a = direct.run(max_cycles=120_000).gbps
        b = via_table.run(max_cycles=120_000).gbps
        assert a == pytest.approx(b, rel=0.01)

    def test_eight_port_router_neighbor_traffic_scales(self):
        """Section 8.5 scaling: neighbor permutations scale ~linearly
        (each flow holds one ring segment)."""
        router = RawRouter(num_ports=8, warmup_cycles=10_000)
        router.attach_saturated(
            *traffic("permutation", 1024, 6, ports=8, shift=1)
        )
        res = router.run(max_cycles=200_000)
        assert res.gbps > 45  # ~2x the 4-port fabric

    def test_eight_port_antipodal_is_bisection_limited(self):
        """The honest flip side: antipodal permutations saturate the
        ring's bisection, so aggregate rate stays near the 4-port level
        -- the scaling caveat the thesis defers to future work."""
        router = RawRouter(num_ports=8, warmup_cycles=10_000)
        router.attach_saturated(
            *traffic("permutation", 1024, 6, ports=8, shift=4)
        )
        res = router.run(max_cycles=200_000)
        assert res.gbps < 35
