"""The declarative traffic layer: spec round-trips, validation, the
compat shim (old flat kwargs bit-identical to the explicit spec), and
the unified build factory across all three engines."""

import json

import pytest

from repro.config import SimConfig
from repro.engines import (
    WORKLOAD_SCHEMA,
    FabricEngine,
    RouterEngine,
    WordLevelEngine,
    WorkloadSpec,
)
from repro.traffic.spec import (
    PRESETS,
    TRAFFIC_SCHEMA,
    ArrivalSpec,
    PatternSpec,
    SizeSpec,
    TrafficSpec,
    resolve_traffic,
    spec_from_legacy,
)


class TestTrafficSpecRoundTrip:
    def test_to_dict_is_schema_tagged(self):
        d = TrafficSpec().to_dict()
        assert d["schema"] == TRAFFIC_SCHEMA

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_round_trip(self, name):
        spec = PRESETS[name]
        assert TrafficSpec.from_dict(spec.to_dict()) == spec
        # And through canonical JSON (the shard-spec serialization).
        assert TrafficSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_replay_spec_round_trips(self):
        spec = TrafficSpec(kind="replay", trace="t.csv", loop=True)
        assert TrafficSpec.from_dict(spec.to_dict()) == spec

    def test_wrong_schema_rejected(self):
        d = TrafficSpec().to_dict()
        d["schema"] = "repro-traffic/999"
        with pytest.raises(ValueError, match="schema"):
            TrafficSpec.from_dict(d)

    def test_unknown_fields_rejected(self):
        d = TrafficSpec().to_dict()
        d["burstiness"] = 3
        with pytest.raises(ValueError, match="unknown traffic spec fields"):
            TrafficSpec.from_dict(d)

    def test_resolve_preset_names_and_errors(self):
        assert resolve_traffic("imix") is PRESETS["imix"]
        assert resolve_traffic(None) is None
        spec = PRESETS["bursty"]
        assert resolve_traffic(spec) is spec
        with pytest.raises(ValueError, match="not a preset"):
            resolve_traffic("no_such_preset")
        with pytest.raises(TypeError):
            resolve_traffic(42)

    def test_resolve_trace_path_becomes_replay(self):
        spec = resolve_traffic("examples/traces/imix_1k.csv")
        assert spec.kind == "replay"
        assert spec.trace.endswith("imix_1k.csv")

    def test_resolve_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(PRESETS["imix_onoff"].to_json())
        assert resolve_traffic(str(path)) == PRESETS["imix_onoff"]

    def test_spec_is_picklable(self):
        import pickle

        spec = PRESETS["imix_heavy"]
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSpecValidation:
    def test_pattern_validation(self):
        with pytest.raises(ValueError, match="unknown pattern kind"):
            PatternSpec(kind="zipf")
        with pytest.raises(ValueError, match="p_hot"):
            PatternSpec(kind="hotspot", p_hot=1.5)
        with pytest.raises(ValueError, match="hot_port"):
            PatternSpec(kind="hotspot", hot_port=-1)
        with pytest.raises(ValueError, match="shift"):
            PatternSpec(shift=-2)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="unknown size kind"):
            SizeSpec(kind="pareto")
        with pytest.raises(ValueError, match="word-aligned"):
            SizeSpec(bytes=65)
        with pytest.raises(ValueError, match="lo must be <= hi"):
            SizeSpec(kind="uniform", lo=512, hi=64)

    def test_arrival_validation(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            ArrivalSpec(kind="poisson")
        with pytest.raises(ValueError, match="alpha > 1"):
            ArrivalSpec(kind="onoff", heavy=True, alpha=0.9)
        assert ArrivalSpec(kind="onoff", mean_on=10, mean_off=30, p=0.8).load \
            == pytest.approx(0.2)

    def test_replay_needs_trace(self):
        with pytest.raises(ValueError, match="trace path"):
            TrafficSpec(kind="replay")

    def test_workload_spec_field_validation(self):
        with pytest.raises(ValueError, match="p_hot"):
            WorkloadSpec(p_hot=1.2)
        with pytest.raises(ValueError, match="shift"):
            WorkloadSpec(shift=-1)
        with pytest.raises(ValueError, match="hot_port"):
            WorkloadSpec(hot_port=-3)

    def test_hot_port_range_checked_at_engine_build_time(self):
        # A 4-port engine must reject hot_port=7 with a clear message.
        wl = WorkloadSpec(pattern="hotspot", hot_port=7, quanta=50)
        with pytest.raises(ValueError, match="hot_port 7 out of range"):
            FabricEngine(SimConfig(ports=4)).run(wl)
        # The same spec is fine on an 8-port engine.
        res = FabricEngine(SimConfig(ports=8)).run(wl)
        assert res.delivered_packets > 0


class TestWorkloadSpecRoundTrip:
    def test_schema_tag_and_round_trip(self):
        wl = WorkloadSpec(traffic=PRESETS["imix"], quanta=123)
        d = wl.to_dict()
        assert d["schema"] == WORKLOAD_SCHEMA
        assert d["traffic"]["schema"] == TRAFFIC_SCHEMA
        assert d["quanta"] == 123
        assert resolve_traffic(d["traffic"]) == PRESETS["imix"]

    def test_effective_traffic_maps_legacy_kwargs(self):
        wl = WorkloadSpec(pattern="hotspot", hot_port=2, p_hot=0.9,
                          packet_bytes=256)
        spec = wl.effective_traffic()
        assert spec.pattern.kind == "hotspot"
        assert spec.pattern.hot_port == 2
        assert spec.sizes.bytes == 256
        assert spec.arrivals.kind == "saturated"

    def test_traffic_field_wins_over_flat_kwargs(self):
        wl = WorkloadSpec(pattern="permutation", traffic="imix")
        assert wl.effective_traffic() == PRESETS["imix"]


def _fingerprint(res):
    return (
        res.cycles,
        res.delivered_packets,
        res.delivered_words,
        res.gbps,
        tuple(res.per_port_packets),
        tuple(sorted(res.latency.items())),
    )


class TestCompatShimEquivalence:
    """Old flat kwargs and the equivalent explicit spec must be
    bit-identical through every engine (the tentpole guarantee)."""

    LEGACY = [
        dict(pattern="permutation", packet_bytes=1024, shift=1),
        dict(pattern="uniform", packet_bytes=256),
        dict(pattern="hotspot", packet_bytes=512, hot_port=1, p_hot=0.8),
    ]

    @pytest.mark.parametrize("kwargs", LEGACY)
    def test_fabric(self, kwargs):
        old = FabricEngine(SimConfig(seed=3)).run(
            WorkloadSpec(**kwargs, quanta=150)
        )
        spec = spec_from_legacy(**kwargs)
        new = FabricEngine(SimConfig(seed=3)).run(
            WorkloadSpec(traffic=spec, quanta=150)
        )
        assert _fingerprint(old) == _fingerprint(new)

    @pytest.mark.parametrize("kwargs", LEGACY)
    def test_router(self, kwargs):
        config = SimConfig(fidelity="router", seed=3)
        old = RouterEngine(config).run(WorkloadSpec(**kwargs, packets=120))
        spec = spec_from_legacy(**kwargs)
        new = RouterEngine(config).run(
            WorkloadSpec(traffic=spec, packets=120)
        )
        assert _fingerprint(old) == _fingerprint(new)

    @pytest.mark.parametrize(
        "kwargs", [k for k in LEGACY if k["pattern"] != "hotspot"]
    )
    def test_wordlevel(self, kwargs):
        config = SimConfig(fidelity="wordlevel", seed=3)
        budget = dict(cycles=15_000, warmup_cycles=2_000)
        old = WordLevelEngine(config).run(WorkloadSpec(**kwargs, **budget))
        spec = spec_from_legacy(**kwargs)
        new = WordLevelEngine(config).run(
            WorkloadSpec(traffic=spec, **budget)
        )
        assert _fingerprint(old) == _fingerprint(new)


class TestNewWorkloadsRun:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_on_fabric(self, name):
        res = FabricEngine(SimConfig(seed=1)).run(
            WorkloadSpec(traffic=name, quanta=200)
        )
        assert res.delivered_packets > 0

    def test_imix_mixes_sizes_in_one_run(self):
        from repro.traffic.model import SpecModel

        model = SpecModel(PRESETS["imix"], n=4, seed=0)
        sizes = {model.next_packet(0)[1] for _ in range(300)}
        assert sizes == {64, 576, 1024}

    def test_hotspot_drift_moves_the_hot_port(self):
        from repro.traffic.model import SpecModel

        spec = TrafficSpec(
            pattern=PatternSpec(kind="hotspot", p_hot=1.0, drift_packets=16),
        )
        model = SpecModel(spec, n=4, seed=0)
        dests = [model.next_packet(0)[0] for _ in range(64)]
        # With p_hot=1 every draw tracks the (drifting) hot port.
        assert dests[:16] == [0] * 16
        assert dests[16:32] == [1] * 16

    def test_bernoulli_preset_on_router_paces_below_line_rate(self):
        res = RouterEngine(SimConfig(fidelity="router", seed=1)).run(
            WorkloadSpec(traffic="bernoulli", packets=80)
        )
        assert res.delivered_packets > 0

    def test_onoff_preset_on_wordlevel_rejected(self):
        with pytest.raises(ValueError, match="saturated-only"):
            WordLevelEngine(SimConfig(fidelity="wordlevel")).run(
                WorkloadSpec(traffic="imix_onoff", cycles=10_000)
            )
