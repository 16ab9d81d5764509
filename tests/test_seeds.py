"""Pin every derived-seed convention in :mod:`repro.seeds` bit-for-bit.

These literals are load-bearing: committed golden results (sweep rows,
bench gates, resilience bounds) were produced under them.  If any
assertion here fails, derived seeds changed and every seeded artifact
in the repo silently shifted -- fix the regression, do not update the
numbers.
"""

import pytest

from repro.seeds import (
    SEED_RANGE,
    SPEC_SEED_MASK,
    cell_seed,
    spec_seed,
    world_seed,
)


class TestCellSeed:
    def test_pinned_values(self):
        # Exactly the historical repro.sweep.cell_seed outputs.
        assert cell_seed(0, {}) == 598130499
        assert cell_seed(0, {"ports": 8}) == 1534824687
        assert cell_seed(123, {"quantum_words": 512, "traffic": "imix_onoff"}) == 1973493854
        assert cell_seed(2026, {"ports": 16, "pattern": "uniform"}) == 1001951500

    def test_reexported_from_sweep(self):
        # sweep.py was the historical home; callers importing from there
        # must keep getting the same function.
        from repro import sweep

        assert sweep.cell_seed is cell_seed

    def test_order_independent(self):
        a = cell_seed(5, {"ports": 8, "quantum_words": 256})
        b = cell_seed(5, {"quantum_words": 256, "ports": 8})
        assert a == b

    def test_in_range(self):
        assert 0 <= cell_seed(2**40, {"x": "y"}) < SEED_RANGE


class TestWorldSeed:
    def test_world_zero_is_base(self):
        # The many-worlds contract: world 0 IS today's scalar run.
        for base in (0, 1, 42, 2**31 - 1):
            assert world_seed(base, 0) == base

    def test_pinned_values(self):
        assert [world_seed(42, w) for w in range(4)] == [
            42, 1043230517, 1520221609, 1557285338,
        ]
        assert [world_seed(0, w) for w in range(4)] == [
            0, 194214676, 1176713668, 729041358,
        ]

    def test_distinct_and_in_range(self):
        seen = {world_seed(7, w) for w in range(1000)}
        assert len(seen) == 1000
        assert all(0 <= s < SEED_RANGE for s in seen)

    def test_negative_world_raises(self):
        with pytest.raises(ValueError):
            world_seed(0, -1)


class TestStorageMasks:
    def test_spec_seed_matches_specmodel(self):
        from repro.traffic.model import SpecModel
        from repro.traffic.spec import resolve_traffic

        spec = resolve_traffic("imix")
        big = 2**64 + 12345
        assert SpecModel(spec, 4, seed=big).seed == spec_seed(big)
        assert spec_seed(big) == big & SPEC_SEED_MASK
