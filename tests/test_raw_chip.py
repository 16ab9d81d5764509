"""Whole-chip assembly and the tile programming model."""

import pytest

from repro.config import CostModel
from repro.raw.chip import RawChip
from repro.sim.kernel import BUSY, Get, Put, Timeout
from repro.sim.trace import Trace

costs = CostModel.default()


class TestChipAssembly:
    def test_default_has_two_static_networks(self):
        chip = RawChip()
        assert len(chip.static) == 2
        assert chip.network is chip.static[0]

    def test_single_network_option(self):
        chip = RawChip(num_static_networks=1)
        assert len(chip.static) == 1

    def test_network_count_validated(self):
        with pytest.raises(ValueError):
            RawChip(num_static_networks=0)
        with pytest.raises(ValueError):
            RawChip(num_static_networks=3)

    def test_per_tile_resources(self):
        chip = RawChip()
        assert len(chip.caches) == 16
        assert len(chip.switches) == 16
        assert chip.caches[0] is not chip.caches[1]

    def test_tile_id_validated(self):
        chip = RawChip()

        def nop():
            yield from ()

        with pytest.raises(ValueError):
            chip.add_tile_program(16, nop())
        with pytest.raises(ValueError):
            chip.add_switch_program(-1, nop())

    def test_seconds_conversion(self):
        chip = RawChip()

        def burn():
            from repro.sim.kernel import Timeout

            yield Timeout(250)

        chip.add_tile_program(0, burn())
        chip.run()
        assert chip.seconds() == pytest.approx(1e-6)  # 250 cycles @ 250 MHz


class TestTileToTileTransfer:
    def test_neighbor_word_transfer(self):
        """The Fig 3-2 scenario: tile 0 sends a word south to tile 4."""
        chip = RawChip()
        link = chip.network.link(0, 4)
        got = []

        def sender():
            yield Put(link, 0xBEEF)

        def receiver():
            got.append((yield Get(link)))

        chip.add_tile_program(0, sender())
        chip.add_tile_program(4, receiver())
        chip.run()
        assert got == [0xBEEF]
        # One switch hop: the word lands a cycle after the send.
        assert chip.now == costs.static_hop_cycles

    def test_trace_keys_per_tile(self):
        trace = Trace()
        chip = RawChip(trace=trace)
        link = chip.network.link(5, 6)

        def blocked_reader():
            yield Get(link)

        def late_writer():
            from repro.sim.kernel import Timeout

            yield Timeout(25)
            yield Put(link, 1)

        chip.add_tile_program(6, blocked_reader())
        chip.add_tile_program(5, late_writer())
        chip.run()
        assert trace.time_in_state("t6", "rx") > 20
        assert trace.time_in_state("t5", "busy") == 25


class TestTileProgram:
    def test_echo_program(self):
        """A tile program is a generator of kernel commands: receive a
        word, compute for 3 cycles, send the word + 1."""
        chip = RawChip()
        a = chip.sim.channel("a")
        b = chip.sim.channel("b")

        def echo():
            word = yield Get(a)
            yield Timeout(3, BUSY)
            yield Put(b, word + 1)

        got = []

        def driver():
            yield Put(a, 41)
            got.append((yield Get(b)))

        chip.add_tile_program(0, echo())
        chip.add_io_program(driver(), "driver")
        chip.run()
        assert got == [42]
        assert chip.now == 3
