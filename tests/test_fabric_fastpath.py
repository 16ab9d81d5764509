"""Fabric fast path: the compiled allocation tables and steady-state
fast-forward.

The contract under test everywhere: every fast-path layer is
*bit-identical* to the plain rule and step loop -- same Allocation
objects, same FabricStats fields, same clock and token state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.allocator import (
    Allocator,
    CompiledAllocator,
    compiled_allocator,
    reference_allocate,
)
from repro.core.fabricsim import (
    FabricSimulator,
    FabricStats,
    saturated_permutation,
)
from repro.core.ring import Link, RingGeometry
from repro.core.token import RotatingToken
from repro.engines import WorkloadSpec, run_config
from repro.faults import FaultEvent, FaultPlan
from repro.telemetry import runtime
from repro.traffic import SpecModel, spec_from_legacy
from repro.traffic.build import fabric_source


@st.composite
def alloc_cases(draw):
    """(n, networks, requests, token) over ring sizes 2/3/4/5/8/16."""
    n = draw(st.sampled_from((2, 3, 4, 5, 8, 16)))
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
    """The compiled tables: the precomputed configurations every
    :class:`Allocator` evaluates through, held to the reference rule."""

    @given(alloc_cases())
    @settings(max_examples=300, deadline=None)
    def test_compiled_allocate_matches_reference(self, case):
        n, networks, requests, token = case
        ring = RingGeometry(n)
        ref = reference_allocate(ring, networks, requests, token)
        got = Allocator(ring, networks=networks).allocate(requests, token)
        assert got.grants == ref.grants
        assert list(got.grants) == list(ref.grants)  # token order
        assert got.blocked == ref.blocked
        assert got.used_links == ref.used_links
        assert got == ref

    @given(alloc_cases())
    @settings(max_examples=200, deadline=None)
    def test_compiled_grants_match_allocation(self, case):
        n, networks, requests, token = case
        ring = RingGeometry(n)
        comp = CompiledAllocator(ring, networks)
        ref = reference_allocate(ring, networks, requests, token)
        expected = tuple(
            (g.src, g.dst, g.expansion) for g in ref.grants.values()
        )
        got = comp.allocate(requests, token)
        assert tuple(
            (g.src, g.dst, g.expansion) for g in got.grants.values()
        ) == expected

    def test_used_links_derived_from_grants(self):
        """Fig 5-1: 0->2 and 2->0 ride clockwise, 1->3 and 3->1
        counterclockwise, so every ring segment plus each in/out link
        is held."""
        alloc = Allocator(RingGeometry(4)).allocate((2, 3, 0, 1), 0)
        assert alloc.used_links == (
            {Link(kind, i) for kind in ("cw", "ccw", "in", "out") for i in range(4)}
        )
        partial = Allocator(RingGeometry(4)).allocate((2, None, None, None), 0)
        assert partial.used_links == {
            Link("cw", 0), Link("cw", 1), Link("in", 0), Link("out", 2)
        }

    def test_one_shared_table_per_geometry(self):
        from repro.parallel.manyworlds import _VecWorlds

        a = Allocator(RingGeometry(16))
        b = Allocator(RingGeometry(16))
        assert a.compiled is b.compiled
        assert a.compiled is compiled_allocator(16, 1)
        assert Allocator(RingGeometry(16), networks=2).compiled is not a.compiled
        assert Allocator(RingGeometry(8)).compiled is not a.compiled
        lanes = _VecWorlds(
            SimConfig(ports=16), WorkloadSpec(traffic="imix", quanta=10), 4
        )
        assert lanes.compiled is a.compiled
        assert a.cache_hits == 0  # allocations are never memoized

    def test_alloc_cache_option_removed(self):
        with pytest.raises(TypeError):
            SimConfig(alloc_cache=4096)
        with pytest.raises(TypeError):
            Allocator(RingGeometry(4), cache_size=64)


class TestReferenceIdentity:
    """Whole runs on the compiled tables equal the same runs on the
    reference rule, every reported field."""

    @pytest.mark.parametrize(
        "seed,workload",
        [
            (42, {"pattern": "uniform"}),
            (7, {"traffic": "imix_onoff"}),
        ],
        ids=["uniform", "imix_onoff"],
    )
    def test_fabric_run_matches_reference(self, reference_rule, seed, workload):
        config = SimConfig(ports=16, seed=seed)
        spec = WorkloadSpec(quanta=1500, warmup_quanta=100, **workload)
        compiled = run_config(config, spec)
        with reference_rule() as ref_cls:
            reference = run_config(config, spec)
        assert ref_cls.calls > 1500
        assert reference.to_dict() == compiled.to_dict()

    def test_router_imix_run_matches_reference(self, reference_rule):
        config = SimConfig(ports=4, fidelity="router", seed=3)
        spec = WorkloadSpec(traffic="imix", packets=600)
        compiled = run_config(config, spec)
        with reference_rule() as ref_cls:
            reference = run_config(config, spec)
        assert ref_cls.calls > 0
        assert reference.to_dict() == compiled.to_dict()


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
        source = fabric_source(spec_from_legacy("uniform", 256), SimConfig(seed=7))
        sim.run(source, quanta=200)
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
    def test_counter_uniform_rejects_self_only_ring(self):
        # The counter-based uniform source every engine polls.
        spec = spec_from_legacy("uniform", 256, exclude_self=True)
        with pytest.raises(ValueError):
            SpecModel(spec, n=1, seed=0)


class TestGaugeRegistration:
    def test_rerun_does_not_reregister(self):
        """Regression: run() used to re-register fabric.clock and the
        ingress queue-depth gauges on every invocation."""
        with runtime.capture() as tel:
            sim = FabricSimulator()
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
            SimConfig(fidelity="fabric", fast_forward=True), workload
        )
        assert "fabric_fast_path" not in plain.extra
        fp = fast.extra["fabric_fast_path"]
        assert fp["ff_quanta"] > 0
        assert fast.cycles == plain.cycles
        assert fast.delivered_packets == plain.delivered_packets
        assert fast.gbps == plain.gbps
        assert fast.per_port_packets == plain.per_port_packets

    def test_telemetry_summary_carries_fast_path(self):
        with runtime.capture() as tel:
            sim = FabricSimulator(fast_forward=True)
            sim.run(saturated_permutation(64, shift=1), quanta=50)
            summary = tel.summary()
        fp = summary["fabric_fast_path"]
        assert fp["ff_quanta"] == 0  # telemetry forces the step loop
        with runtime.capture() as tel:
            FabricSimulator().run(saturated_permutation(64, shift=1), quanta=50)
            assert "fabric_fast_path" not in tel.summary()

    def test_sweep_summary_line_shows_fast_path(self):
        from repro.sweep import summarize

        table = {
            "sweep": {"cells": 1, "workers": 1, "worker_pids": [1]},
            "rows": [{
                "cell": {"ports": 4},
                "result": {
                    "gbps": 1.0, "mpps": 0.5, "delivered_packets": 10,
                    "cycles": 100,
                    "extra": {"fabric_fast_path": {"ff_quanta": 40}},
                },
            }],
        }
        text = summarize(table)
        assert "ff 40q" in text
