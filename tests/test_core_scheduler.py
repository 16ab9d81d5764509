"""Compile-time scheduler: passes, jump table, codegen, IMEM fit."""

import pytest

from repro.core.allocator import Allocator
from repro.core.ring import RingGeometry
from repro.core.scheduler import (
    CompileTimeScheduler,
    TilePortMap,
    _direction_between,
    default_port_maps,
)
from repro.config import CostModel
from repro.raw.layout import CROSSBAR_RING, Direction, ROUTER_LAYOUT

costs = CostModel.default()


@pytest.fixture(scope="module")
def schedule():
    return CompileTimeScheduler(RingGeometry(4)).compile()


class TestPortMaps:
    def test_direction_between(self):
        assert _direction_between(5, 6) is Direction.EAST
        assert _direction_between(5, 1) is Direction.NORTH
        assert _direction_between(5, 9) is Direction.SOUTH
        assert _direction_between(5, 4) is Direction.WEST
        with pytest.raises(ValueError):
            _direction_between(5, 10)

    def test_default_maps_cover_ring(self):
        maps = default_port_maps()
        assert [m.tile for m in maps] == list(CROSSBAR_RING)
        for m, layout in zip(maps, ROUTER_LAYOUT):
            assert m.ingress_dir is _direction_between(m.tile, layout.ingress)
            assert m.egress_dir is _direction_between(m.tile, layout.egress)

    def test_client_server_ports(self):
        pm = default_port_maps()[0]  # tile 5
        assert pm.client_port("in") == "$cWi"
        assert pm.server_port("out") == "$cNo"
        assert pm.server_port("cwnext") == "$cEo"
        assert pm.server_port("ccwnext") == "$cSo"
        # cw words arrive from the counterclockwise neighbor (tile 9).
        assert pm.client_port("cwprev") == "$cSi"
        assert pm.client_port("ccwprev") == "$cEi"
        with pytest.raises(ValueError):
            pm.client_port("bogus")
        with pytest.raises(ValueError):
            pm.server_port("bogus")


class TestJumpTable:
    def test_lookup_matches_allocator(self, schedule):
        allocator = Allocator(RingGeometry(4))
        for headers in [(2, 3, 0, 1), (0, 0, 0, 0), (None, 1, None, 3)]:
            for token in range(4):
                ids, alloc = schedule.lookup(headers, token)
                direct = allocator.allocate(headers, token)
                assert set(alloc.grants) == set(direct.grants)
                assert len(ids) == 4

    def test_complete_coverage(self, schedule):
        assert len(schedule.jump_table) == 2500
        assert len(schedule.allocations) == 2500

    def test_ids_in_range(self, schedule):
        n = schedule.minimization.minimized_size
        for ids in schedule.jump_table.values():
            assert all(0 <= i < n for i in ids)


class TestCodegen:
    def test_assembly_structure(self, schedule):
        pm = default_port_maps()[0]
        ids, _ = schedule.lookup((2, 3, 0, 1), 0)
        listing = schedule.assembly_for(ids[0], pm, quantum_words=16)
        assert listing[0].startswith("cfg")
        assert listing[-1].strip().startswith("j ")
        assert any("route" in line for line in listing)

    def test_idle_config_is_nop(self, schedule):
        ids, _ = schedule.lookup((None, None, None, None), 0)
        pm = default_port_maps()[0]
        listing = schedule.assembly_for(ids[0], pm)
        assert any("nop" in line for line in listing)

    def test_prologue_matches_expansion(self, schedule):
        # A 2-hop flow: the destination tile's code has 2 fill slots.
        ids, alloc = schedule.lookup((2, None, None, None), 0)
        cfg = schedule.config(ids[2])
        assert cfg.expansion == 2
        pm = default_port_maps()[2]
        listing = schedule.assembly_for(ids[2], pm)
        assert sum("; fill" in line for line in listing) == 2
        assert sum("; drain" in line for line in listing) == 2

    def test_port_mnemonics_valid(self, schedule):
        valid = {"$cNi", "$cSi", "$cEi", "$cWi", "$cNo", "$cSo", "$cEo", "$cWo"}
        pm = default_port_maps()[1]
        for cid in range(schedule.minimization.minimized_size):
            for line in schedule.assembly_for(cid, pm):
                for tok in line.replace(",", " ").split():
                    if tok.startswith("$c") and tok != "$csto" and tok != "$csti":
                        for part in tok.split("->"):
                            assert part in valid, line

    def test_full_listing_contains_all_configs(self, schedule):
        listing = schedule.full_listing()
        for cid in range(schedule.minimization.minimized_size):
            assert f"cfg{cid}:" in listing


class TestIMemFit:
    def test_fits_switch_memory(self, schedule):
        used = schedule.imem_words_per_tile()
        assert used <= costs.switch_mem_words
        assert schedule.fits_imem()

    def test_naive_budget_would_not_fit(self, schedule):
        """The motivating arithmetic: even 4 instructions per naive
        config would overflow the 8,192-word switch memory."""
        assert 2500 * 4 > costs.switch_mem_words


class TestReservePass:
    def test_reserve_is_pass1(self):
        sched = CompileTimeScheduler(RingGeometry(4))
        alloc = sched.reserve((2, 3, 0, 1), 0)
        assert alloc.num_granted == 4
