"""Fabric-stage behaviours: parking, wake, output blocking, QoS plumbing."""

import numpy as np
import pytest

from repro.core.token import WeightedToken
from repro.router.router import RawRouter
from repro.traffic import PacketFactory, SpecModel, spec_from_legacy


def traffic(pattern, size, seed, **kw):
    """(model, factory) drawing a saturated ``size``-byte spec on 4 ports."""
    spec = spec_from_legacy(pattern, size, **kw)
    return SpecModel(spec, n=4, seed=seed), PacketFactory(4, seed)


class TestIdleParking:
    def test_finite_sources_drain_and_stop(self):
        """With finite line-card sources the simulation quiesces: the
        fabric parks instead of spinning idle quanta forever."""
        router = RawRouter(warmup_cycles=0)
        workload, factory = traffic("permutation", 256, 0, shift=1)
        sources = router.attach_linecards(
            workload, factory, offered_load=0.5,
            rng=np.random.default_rng(0), packets_per_port=25,
        )
        res = router.run(target_packets=100)
        end = router.sim.now
        # Re-running adds nothing: no runaway idle events.
        router.sim.run(until=end + 500_000, raise_on_deadlock=False)
        assert router.sim.now == end
        assert res.packets == 100

    def test_wake_resumes_after_idle_gap(self):
        """A long silent gap then one packet: the parked fabric must wake
        and deliver it."""
        router = RawRouter(warmup_cycles=0)
        workload, factory = traffic("permutation", 64, 1, shift=1)
        sources = router.attach_linecards(
            workload, factory, offered_load=0.01,
            rng=np.random.default_rng(1), packets_per_port=3,
        )
        res = router.run(target_packets=12, chunk=50_000)
        assert res.packets == 12


class TestOutputBlocking:
    def test_slow_egress_backpressures_fabric(self):
        """A tiny egress queue with an all-to-one hotspot: the fabric
        must block on Put rather than drop, and everything still
        arrives exactly once."""
        router = RawRouter(warmup_cycles=0, egress_queue_frags=1)
        router.attach_saturated(
            *traffic("hotspot", 1024, 2, hot_port=2, p_hot=1.0)
        )
        res = router.run(max_cycles=150_000)
        assert res.packets > 50
        assert router.stats.per_port_delivered[2] == res.packets
        assert sum(router.stats.per_port_delivered) == res.packets


class TestWeightedTokenPlumbing:
    def test_fabric_uses_supplied_token(self):
        token = WeightedToken([7, 1, 1, 1])
        router = RawRouter(token=token, warmup_cycles=0)
        router.attach_saturated(
            *traffic("hotspot", 128, 3, hot_port=0, p_hot=1.0)
        )
        router.run(max_cycles=120_000)
        shares = router.stats.input_share()
        assert shares[0] == pytest.approx(0.7, abs=0.05)
        assert token.rotations > 0


class TestGrantAccounting:
    def test_histogram_and_blocked_counters(self):
        router = RawRouter(warmup_cycles=0)
        router.attach_saturated(
            *traffic("hotspot", 64, 4, hot_port=0, p_hot=1.0)
        )
        router.run(max_cycles=60_000)
        stats = router.stats
        # Hotspot: exactly one grant per busy quantum, three blocked.
        busy_quanta = sum(stats.grant_histogram[1:])
        assert stats.grant_histogram[1] == busy_quanta
        assert stats.blocked_grants == pytest.approx(3 * busy_quanta, abs=8)