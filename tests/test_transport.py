"""Transport-layer invariants of the space-partitioned fabric.

The contract under test (DESIGN.md §15): every transport backend --
pipe and hub-relayed socket -- moves the token-window protocol
bit-identically to the single-process reference at every partition
count; the torus geometry pins its channel table; and the fault guard
admits exactly the plans the engine can realize.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.spacetopo import build_topology, torus_topology
from repro.engines import WorkloadSpec, run_config
from repro.faults import FaultEvent, FaultPlan
from repro.parallel import (
    SpaceSpec,
    SpaceWorkerPool,
    TRANSPORTS,
    auto_partitions,
    merge_backend_counters,
    run_space,
    run_space_serial,
    serve_worker,
    transport_name,
)
from repro.parallel.space_shard import BACKEND_COUNTER_KEYS, backend_counters


def _result_key(res):
    return (res.cycles, res.delivered_packets, res.delivered_words,
            tuple(res.per_port_packets))


def spec_for(partitions: int, k: int = 4, geometry: str = "clos",
             quanta: int = 120, warmup: int = 20, **kw) -> SpaceSpec:
    return SpaceSpec(
        k=k,
        geometry=geometry,
        latency=2,
        partitions=partitions,
        source=SpaceSpec.pack_source(
            {"kind": "permutation", "words": 48, "shift": 5}
        ),
        quanta=quanta,
        warmup_quanta=warmup,
        **kw,
    )


# ---------------------------------------------------------------------------
# Cross-backend bit-identity.
# ---------------------------------------------------------------------------
class TestBackendIdentity:
    @pytest.mark.parametrize("transport", list(TRANSPORTS))
    @pytest.mark.parametrize("partitions", [1, 2, 4, 8])
    def test_backend_matches_serial(self, transport, partitions):
        spec = spec_for(partitions)
        ref = run_space_serial(spec)
        got, info = run_space(spec, transport=transport)
        assert ref.counters() == got.counters()
        assert info.transport == transport
        if partitions > 1:
            assert not info.serial_fallback
            assert sum(info.bytes_moved) > 0

    def test_transport_name_parsing(self):
        assert transport_name("pipe") == "pipe"
        assert transport_name("socket") == "socket"
        assert transport_name("socket:127.0.0.1:9999") == "socket"
        for gone in ("carrier-pigeon", "shm"):
            with pytest.raises(ValueError, match="transport"):
                transport_name(gone)

    def test_simconfig_validates_transport(self):
        assert SimConfig(transport="socket:h:1").transport == "socket:h:1"
        for gone in ("bogus", "shm"):
            with pytest.raises(ValueError, match="transport"):
                SimConfig(transport=gone)

    def test_pool_reuse_stays_identical(self):
        spec = spec_for(4)
        ref = run_space_serial(spec)
        with SpaceWorkerPool(4, transport="socket") as pool:
            for _ in range(2):
                got, info = run_space(spec, pool=pool)
                assert got.counters() == ref.counters()
                assert info.transport == "socket"

    def test_serve_worker_rejects_bad_address(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            serve_worker("nocolon")
        with pytest.raises(ValueError, match="HOST:PORT"):
            serve_worker("host:notaport")


# ---------------------------------------------------------------------------
# Adaptive partition count.
# ---------------------------------------------------------------------------
class TestAutoPartitions:
    def test_bounded_by_preference_and_cores(self, monkeypatch):
        import os

        topo = build_topology("clos", 8)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert auto_partitions(topo) == topo.preferred_partitions == 8
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert auto_partitions(topo) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert auto_partitions(topo) == 1

    def test_engine_partitions_zero_is_auto(self):
        cfg = SimConfig(ports=16, fidelity="space", partitions=0)
        res = run_config(cfg, WorkloadSpec(quanta=60))
        sp = res.extra["space_shard"]
        assert sp["partitions_auto"] is True
        assert sp["partitions"] >= 1
        ref = run_config(
            SimConfig(ports=16, fidelity="space", partitions=1),
            WorkloadSpec(quanta=60),
        )
        assert _result_key(res) == _result_key(ref)

    def test_negative_partitions_rejected(self):
        with pytest.raises(ValueError, match="partitions"):
            SimConfig(partitions=-1)


# ---------------------------------------------------------------------------
# Torus geometry.
# ---------------------------------------------------------------------------
class TestTorus:
    def test_golden_channel_table_k4(self):
        topo = torus_topology(4, latency=3)
        assert topo.num_nodes == 4
        assert topo.num_ports == 8
        assert topo.preferred_partitions == 4
        got = [
            (ch.cid, ch.src_node, ch.src_leg, ch.dst_node, ch.dst_leg,
             ch.latency)
            for ch in topo.channels
        ]
        assert got == [
            (0, 0, 0, 1, 1, 3),
            (1, 0, 1, 3, 0, 3),
            (2, 1, 0, 2, 1, 3),
            (3, 1, 1, 0, 0, 3),
            (4, 2, 0, 3, 1, 3),
            (5, 2, 1, 1, 0, 3),
            (6, 3, 0, 0, 1, 3),
            (7, 3, 1, 2, 0, 3),
        ]

    def test_route_shortest_path_prefers_plus_direction(self):
        topo = torus_topology(4)
        # dest ports 4 and 5 live on node 2: local delivery on node 2,
        # and an antipodal tie at node 0 resolves to the + direction.
        assert topo.route(2, 4) == 2
        assert topo.route(2, 5) == 3
        assert topo.route(0, 4) == 0
        assert topo.route(1, 4) == 0
        assert topo.route(3, 4) == 1

    def test_build_topology_dispatch(self):
        assert build_topology("torus", 5).geometry == "torus"
        with pytest.raises(ValueError, match="torus"):
            build_topology("mesh", 4)
        with pytest.raises(ValueError, match=">= 3"):
            torus_topology(2)

    def test_torus_distributed_matches_serial(self):
        spec = spec_for(2, k=5, geometry="torus")
        ref = run_space_serial(spec)
        got, info = run_space(spec)
        assert ref.counters() == got.counters()
        assert not info.serial_fallback


# ---------------------------------------------------------------------------
# Fault-plan guard.
# ---------------------------------------------------------------------------
def _channel_for(owner_equal: bool, partitions: int):
    """A clos k=4 channel whose endpoints share (or straddle) partition
    blocks at the given partition count."""
    topo = build_topology("clos", 4)
    owner = topo.node_owner(topo.partition(partitions))
    for ch in topo.channels:
        if (owner[ch.src_node] == owner[ch.dst_node]) == owner_equal:
            return ch
    raise AssertionError("no such channel")


class TestFaultGuard:
    def test_intra_partition_link_fault_is_realized(self):
        ch = _channel_for(owner_equal=True, partitions=2)
        plan = FaultPlan(events=(
            FaultEvent(cycle=30, kind="link_down",
                       target=f"link:{ch.cid}", duration=40),
        ))
        wl = WorkloadSpec(quanta=160, fault_plan=plan)
        clean = run_config(
            SimConfig(ports=16, fidelity="space", partitions=2),
            WorkloadSpec(quanta=160),
        )
        faulted = run_config(
            SimConfig(ports=16, fidelity="space", partitions=2), wl
        )
        serial = run_config(
            SimConfig(ports=16, fidelity="space", partitions=1), wl
        )
        # The fault perturbs the run, and the distributed realization is
        # bit-identical to the serial one.
        assert _result_key(faulted) != _result_key(clean)
        assert _result_key(faulted) == _result_key(serial)

    def test_cross_partition_link_fault_refused_loudly(self):
        ch = _channel_for(owner_equal=False, partitions=2)
        wl = WorkloadSpec(quanta=60, fault_plan=FaultPlan(events=(
            FaultEvent(cycle=10, kind="link_down",
                       target=f"link:{ch.cid}", duration=20),
        )))
        with pytest.raises(ValueError, match="cross-partition"):
            run_config(
                SimConfig(ports=16, fidelity="space", partitions=2), wl
            )

    def test_unsupported_fault_kind_refused(self):
        wl = WorkloadSpec(quanta=60, fault_plan=FaultPlan(events=(
            FaultEvent(cycle=10, kind="token_loss"),
        )))
        with pytest.raises(ValueError, match="cannot realize"):
            run_config(
                SimConfig(ports=16, fidelity="space", partitions=2), wl
            )


# ---------------------------------------------------------------------------
# Per-backend counter merge.
# ---------------------------------------------------------------------------
COUNTERS = st.fixed_dictionaries(
    {key: st.integers(0, 10**9) for key in BACKEND_COUNTER_KEYS}
)


class TestCounterMerge:
    @settings(max_examples=50, deadline=None)
    @given(a=COUNTERS, b=COUNTERS, c=COUNTERS)
    def test_merge_is_associative_and_commutative(self, a, b, c):
        ab_c = merge_backend_counters(merge_backend_counters(a, b), c)
        a_bc = merge_backend_counters(a, merge_backend_counters(b, c))
        assert ab_c == a_bc
        assert merge_backend_counters(a, b) == merge_backend_counters(b, a)

    def test_backend_counters_shape(self):
        spec = spec_for(2)
        _, info = run_space(spec)
        counters = backend_counters(info)
        assert set(counters) == set(BACKEND_COUNTER_KEYS)
        assert counters["bytes_moved"] == sum(info.bytes_moved)
        assert counters["boundary_flits"] == sum(info.boundary_flits)
