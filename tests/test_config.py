"""CostModel/SimConfig: defaults, overrides and pickling.

The single most important property here: ``CostModel.default()`` must
reproduce, field for field, the calibrated constants the repository's
chapter-7 numbers were produced with.  The expected values below are
hardcoded on purpose -- they are the historical cost constants, and a
drift in the dataclass defaults should fail loudly, not re-derive
itself.
"""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    COST_MODEL_FIELDS,
    FIDELITIES,
    SIM_CONFIG_FIELDS,
    CostModel,
    SimConfig,
)

#: The historical cost constants, frozen at the values the thesis
#: reproduction was calibrated against.
HISTORICAL_COSTS = {
    "clock_hz": 250e6,
    "word_bits": 32,
    "num_tiles": 16,
    "static_hop_cycles": 1,
    "static_fifo_depth": 4,
    "send_to_use_cycles": 3,
    "dynamic_base_cycles": 15,
    "dynamic_per_hop_cycles": 2,
    "dynamic_max_message_words": 32,
    "net_to_mem_cycles_per_word": 2,
    "mem_to_net_cycles_per_word": 1,
    "cut_through_cycles_per_word": 1,
    "predicted_branch_cycles": 1,
    "mispredicted_branch_cycles": 3,
    "dmem_words": 8192,
    "imem_words": 8192,
    "switch_mem_words": 8192,
    "cache_line_bytes": 32,
    "cache_ways": 2,
    "cache_hit_cycles": 3,
    "cache_miss_cycles": 54,
    "header_words": 2,
    "quantum_ctl_overhead": 48,
    "max_quantum_words": 256,
    "ingress_header_cycles": 20,
    "lookup_cycles": 30,
}


class TestCostModelDefaults:
    def test_every_field_matches_history(self):
        model = CostModel.default()
        for name, expected in HISTORICAL_COSTS.items():
            assert getattr(model, name) == expected, name

    def test_no_unchecked_fields(self):
        # A field added to CostModel must also be added to the golden
        # table above (and given a deliberate default).
        assert set(HISTORICAL_COSTS) == set(COST_MODEL_FIELDS)

    def test_default_is_singleton(self):
        assert CostModel.default() is CostModel.default()


class TestCostModelValue:
    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel.default().clock_hz = 1.0

    def test_replace_does_not_mutate_default(self):
        fast = CostModel.default().replace(clock_hz=425e6)
        assert fast.clock_hz == 425e6
        assert CostModel.default().clock_hz == 250e6

    def test_pickle_round_trip(self):
        model = CostModel.default().replace(quantum_ctl_overhead=64)
        assert pickle.loads(pickle.dumps(model)) == model

    def test_to_dict_covers_every_field(self):
        assert set(CostModel.default().to_dict()) == set(COST_MODEL_FIELDS)

    @given(st.integers(min_value=1, max_value=9000))
    def test_bytes_to_words_ceil(self, size):
        model = CostModel.default()
        words = model.bytes_to_words(size)
        assert (words - 1) * model.word_bytes < size <= words * model.word_bytes


class TestSimConfig:
    def test_defaults(self):
        config = SimConfig()
        assert config.ports == 4
        assert config.fidelity == "fabric"
        assert config.costs is CostModel.default()

    def test_none_overrides_fall_through_to_costs(self):
        assert SimConfig().cost_model() is CostModel.default()

    def test_overrides_are_merged_into_costs(self):
        config = SimConfig(quantum_words=512, clock_hz=425e6, static_fifo_depth=8)
        merged = config.cost_model()
        assert merged.max_quantum_words == 512
        assert merged.clock_hz == 425e6
        assert merged.static_fifo_depth == 8
        # everything else untouched
        assert merged.quantum_ctl_overhead == 48

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(ports=1)
        with pytest.raises(ValueError):
            SimConfig(networks=3)
        with pytest.raises(ValueError):
            SimConfig(fidelity="spice")

    def test_fidelities_cover_engines(self):
        assert FIDELITIES == ("fabric", "space", "router", "wordlevel")

    def test_pickle_round_trip(self):
        config = SimConfig(ports=8, seed=7, costs=CostModel.default().replace(cache_ways=4))
        assert pickle.loads(pickle.dumps(config)) == config

    def test_to_dict_covers_every_field(self):
        assert set(SimConfig().to_dict()) == set(SIM_CONFIG_FIELDS) | {"costs"}


class TestSweepHelpers:
    def test_parse_grid_aliases_and_types(self):
        from repro.sweep import parse_grid

        grid = parse_grid(["ports=4,8", "quantum=256", "pattern=uniform"])
        assert grid == {
            "ports": [4, 8],
            "quantum_words": [256],
            "pattern": ["uniform"],
        }

    def test_parse_grid_rejects_garbage(self):
        from repro.sweep import parse_grid

        with pytest.raises(ValueError):
            parse_grid(["ports"])
        with pytest.raises(ValueError):
            parse_grid(["ports="])

    def test_expand_grid_is_cartesian_and_ordered(self):
        from repro.sweep import expand_grid

        cells = expand_grid({"b": [1, 2], "a": ["x"]})
        assert cells == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]

    def test_cell_seed_deterministic_and_distinct(self):
        from repro.sweep import cell_seed

        a = cell_seed(0, {"ports": 4, "quantum_words": 256})
        assert a == cell_seed(0, {"quantum_words": 256, "ports": 4})
        assert a != cell_seed(0, {"ports": 4, "quantum_words": 512})
        assert a != cell_seed(1, {"ports": 4, "quantum_words": 256})

    def test_build_cell_routes_keys_to_layers(self):
        from repro.sweep import build_cell

        config, workload = build_cell(
            {"ports": 8, "packet_bytes": 64, "cache_miss_cycles": 100}
        )
        assert config.ports == 8
        assert workload.packet_bytes == 64
        assert config.costs.cache_miss_cycles == 100
        # un-swept cost fields keep their defaults
        assert config.costs.quantum_ctl_overhead == 48

    def test_build_cell_rejects_unknown_keys(self):
        from repro.sweep import build_cell

        with pytest.raises(ValueError):
            build_cell({"warp_factor": 9})
