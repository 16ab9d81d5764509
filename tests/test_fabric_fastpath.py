"""Fabric fast path: allocation cache, compiled tables, and steady-state
fast-forward.

The contract under test everywhere: every fast-path layer is
*bit-identical* to the plain step loop -- same Allocation objects, same
FabricStats fields, same clock and token state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.allocator import Allocator, CompiledAllocator
from repro.core.fabricsim import (
    CounterUniformSource,
    FabricSimulator,
    FabricStats,
    saturated_permutation,
    saturated_uniform,
    saturated_uniform_counter,
)
from repro.core.ring import RingGeometry
from repro.core.token import RotatingToken
from repro.engines import WorkloadSpec, run_config
from repro.faults import FaultEvent, FaultPlan
from repro.telemetry import runtime


@st.composite
def alloc_cases(draw):
    """(n, networks, requests, token) over ring sizes 4/8/16."""
    n = draw(st.sampled_from((4, 8, 16)))
    networks = draw(st.sampled_from((1, 2)))
    requests = tuple(
        draw(st.one_of(st.none(), st.integers(0, n - 1))) for _ in range(n)
    )
    token = draw(st.integers(0, n - 1))
    return n, networks, requests, token


def assert_stats_identical(a: FabricStats, b: FabricStats) -> None:
    """Field-for-field equality of every accumulated statistic."""
    for f in FabricStats._COUNTER_FIELDS:
        assert getattr(a, f) == getattr(b, f), f
    for f in FabricStats._VECTOR_FIELDS:
        assert list(getattr(a, f)) == list(getattr(b, f)), f
    assert a.gbps == b.gbps
    assert a.mpps == b.mpps


class TestAllocationCache:
    @given(alloc_cases())
    @settings(max_examples=200, deadline=None)
    def test_cached_allocator_bit_identical(self, case):
        n, networks, requests, token = case
        ring = RingGeometry(n)
        plain = Allocator(ring, networks=networks)
        fast = Allocator(ring, networks=networks, cache_size=64)
        ref = plain.allocate(requests, token)
        miss = fast.allocate(requests, token)
        hit = fast.allocate(requests, token)
        assert miss == ref
        assert hit == ref
        assert hit is miss  # the cached object is shared
        assert fast.cache_hits == 1 and fast.cache_misses == 1

    @given(alloc_cases())
    @settings(max_examples=200, deadline=None)
    def test_compiled_grants_match_allocation(self, case):
        n, networks, requests, token = case
        ring = RingGeometry(n)
        comp = CompiledAllocator(ring, networks)
        alloc = Allocator(ring, networks=networks).allocate(requests, token)
        expected = tuple(
            (g.src, g.dst, g.expansion) for g in alloc.grants.values()
        )
        assert comp.grants(requests, token) == expected

    def test_lru_eviction_bound(self):
        ring = RingGeometry(4)
        alloc = Allocator(ring, cache_size=4)
        for token in range(4):
            for dst in range(4):
                alloc.allocate((dst, None, None, None), token)
        info = alloc.cache_info()
        assert info["size"] <= 4
        assert info["maxsize"] == 4
        assert info["misses"] == 16

    def test_hit_rate_on_recurring_workload(self):
        sim = FabricSimulator(allocator=Allocator(RingGeometry(4), cache_size=64))
        sim.run(saturated_permutation(64, shift=1), quanta=100)
        info = sim.allocator.cache_info()
        # One distinct (requests, token) key per token position.
        assert info["hits"] + info["misses"] == 100
        assert info["hit_rate"] > 0.9

    def test_enable_disable(self):
        alloc = Allocator(RingGeometry(4))
        assert not alloc.cache_enabled
        alloc.enable_cache(16)
        assert alloc.cache_enabled
        alloc.disable_cache()
        assert not alloc.cache_enabled
        with pytest.raises(ValueError):
            alloc.enable_cache(0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(alloc_cache=-1)


class TestFastForward:
    @pytest.mark.parametrize(
        "n,shift,words",
        [(4, 2, 256), (8, 3, 64), (16, 8, 256), (8, 1, 600)],
    )
    def test_bit_identical_to_stepping(self, n, shift, words):
        """words=600 > max_quantum_words exercises fragmented packets."""
        source = saturated_permutation(words, shift=shift, n=n)
        ring = RingGeometry(n)
        stepped_sim = FabricSimulator(ring=ring, token=RotatingToken(n))
        stepped = stepped_sim.run(source, quanta=700, warmup_quanta=60)
        ff_sim = FabricSimulator(
            ring=ring, token=RotatingToken(n), fast_forward=True
        )
        ff = ff_sim.run(source, quanta=700, warmup_quanta=60)
        assert ff_sim.ff_quanta > 0
        assert_stats_identical(stepped, ff)
        assert ff_sim.clock == stepped_sim.clock
        assert ff_sim.token.rotations == stepped_sim.token.rotations
        assert ff_sim.token.master == stepped_sim.token.master

    def test_disabled_for_stochastic_source(self):
        sim = FabricSimulator(fast_forward=True)
        sim.run(saturated_uniform_counter(64, seed=7), quanta=200)
        assert sim.ff_quanta == 0

    def test_disabled_under_keep_history(self):
        sim = FabricSimulator(keep_history=True, fast_forward=True)
        sim.run(saturated_permutation(64, shift=1), quanta=120)
        assert sim.ff_quanta == 0
        assert len(sim.history) == 120

    def test_disabled_under_telemetry(self):
        with runtime.capture():
            sim = FabricSimulator(fast_forward=True)
            sim.run(saturated_permutation(64, shift=1), quanta=120)
        assert sim.ff_quanta == 0

    def test_disabled_under_min_packets_stopping(self):
        sim = FabricSimulator(fast_forward=True)
        stats = sim.run(saturated_permutation(64, shift=1), min_packets=50)
        assert sim.ff_quanta == 0
        assert stats.delivered_packets >= 50

    def test_disabled_under_faults_and_still_bit_identical(self):
        plan = FaultPlan(
            events=(FaultEvent(cycle=2_000, kind="token_loss"),)
        )
        source = saturated_permutation(64, shift=1)
        ref_sim = FabricSimulator()
        ref_sim.install_faults(plan)
        ref = ref_sim.run(source, quanta=300)
        ff_sim = FabricSimulator(fast_forward=True)
        ff_sim.install_faults(plan)
        got = ff_sim.run(source, quanta=300)
        assert ff_sim.ff_quanta == 0
        assert_stats_identical(ref, got)


class TestSourceGuards:
    def test_saturated_uniform_rejects_self_only_ring(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            saturated_uniform(64, rng, n=1, exclude_self=True)

    def test_counter_uniform_rejects_self_only_ring(self):
        with pytest.raises(ValueError):
            CounterUniformSource(64, seed=0, n=1, exclude_self=True)

    def test_n1_allowed_without_exclusion(self):
        rng = np.random.default_rng(0)
        source = saturated_uniform(64, rng, n=1, exclude_self=False)
        assert source(0) == (0, 64)


class TestGaugeRegistration:
    def test_rerun_does_not_reregister(self):
        """Regression: run() used to re-register fabric.clock and the
        ingress queue-depth gauges on every invocation."""
        with runtime.capture() as tel:
            sim = FabricSimulator(
                allocator=Allocator(RingGeometry(4), cache_size=16)
            )
            source = saturated_permutation(64, shift=1)
            sim.run(source, quanta=20)
            registered = []
            orig = tel.registry.gauge

            def spy(name, fn):
                registered.append(name)
                orig(name, fn)

            tel.registry.gauge = spy
            try:
                sim.run(source, quanta=20)
            finally:
                tel.registry.gauge = orig
            assert registered == []
            assert tel.registry.read_gauge("fabric.clock") == sim.clock
            assert tel.registry.read_gauge("fabric.alloc_cache.hits") == (
                sim.allocator.cache_hits
            )

    def test_new_registry_gets_fresh_gauges(self):
        sim = FabricSimulator(fast_forward=True)
        source = saturated_permutation(64, shift=1)
        with runtime.capture() as tel1:
            sim.run(source, quanta=10)
            assert tel1.registry.read_gauge("fabric.clock") == sim.clock
        with runtime.capture() as tel2:
            sim.run(source, quanta=10)
            assert tel2.registry.read_gauge("fabric.clock") == sim.clock
            assert tel2.registry.read_gauge("fabric.fast_forward.quanta") == 0


class TestWiring:
    def test_engine_reports_fast_path_and_stays_bit_identical(self):
        workload = WorkloadSpec(pattern="permutation", quanta=250)
        plain = run_config(SimConfig(fidelity="fabric"), workload)
        fast = run_config(
            SimConfig(fidelity="fabric", alloc_cache=1024, fast_forward=True),
            workload,
        )
        assert "fabric_fast_path" not in plain.extra
        fp = fast.extra["fabric_fast_path"]
        assert fp["ff_quanta"] > 0
        assert 0.0 <= fp["cache_hit_rate"] <= 1.0
        assert fast.cycles == plain.cycles
        assert fast.delivered_packets == plain.delivered_packets
        assert fast.gbps == plain.gbps
        assert fast.per_port_packets == plain.per_port_packets

    def test_telemetry_summary_carries_fast_path(self):
        with runtime.capture() as tel:
            sim = FabricSimulator(
                allocator=Allocator(RingGeometry(4), cache_size=64)
            )
            sim.run(saturated_permutation(64, shift=1), quanta=50)
            summary = tel.summary()
        fp = summary["fabric_fast_path"]
        assert fp["cache_hits"] == sim.allocator.cache_hits
        assert fp["cache_misses"] == sim.allocator.cache_misses
        assert fp["ff_quanta"] == 0  # telemetry forces the step loop

    def test_sweep_summary_line_shows_fast_path(self):
        from repro.sweep import summarize

        table = {
            "sweep": {"cells": 1, "workers": 1, "worker_pids": [1]},
            "rows": [{
                "cell": {"ports": 4},
                "result": {
                    "gbps": 1.0, "mpps": 0.5, "delivered_packets": 10,
                    "cycles": 100,
                    "extra": {"fabric_fast_path": {
                        "cache_hits": 9, "cache_misses": 1,
                        "cache_hit_rate": 0.9, "ff_quanta": 40,
                    }},
                },
            }],
        }
        text = summarize(table)
        assert "cache 90% hit" in text
        assert "ff 40q" in text
