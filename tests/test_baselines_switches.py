"""Cell-switch baselines: schedulers, HOL, VOQ, OQ, cells-vs-packets."""

import numpy as np
import pytest

from repro.baselines.cells import CellModeBackplane, PacketModeBackplane
from repro.baselines.cellsim import FIFOSwitch, OutputQueuedSwitch, VOQSwitch
from repro.baselines.schedulers import PIMScheduler, iSLIPScheduler
from repro.traffic.sizes import BimodalSizes


def random_requests(rng, n, density=0.5):
    return [[bool(rng.random() < density) for _ in range(n)] for _ in range(n)]


class TestSchedulerInvariants:
    @pytest.mark.parametrize("make", [
        lambda n: iSLIPScheduler(n, iterations=1),
        lambda n: iSLIPScheduler(n, iterations=4),
        lambda n: PIMScheduler(n, iterations=2, rng=np.random.default_rng(0)),
    ])
    def test_matching_is_valid(self, make):
        rng = np.random.default_rng(7)
        for n in (4, 8):
            sched = make(n)
            for _ in range(100):
                reqs = random_requests(rng, n)
                match = sched.match(reqs)
                # one-to-one and only where requested
                assert len(set(match.values())) == len(match)
                for i, j in match.items():
                    assert reqs[i][j]

    def test_islip_full_permutation_matched(self):
        """With a full request matrix, multi-iteration iSLIP finds a
        perfect matching."""
        s = iSLIPScheduler(4, iterations=4)
        full = [[True] * 4 for _ in range(4)]
        # pointers desynchronize after a couple of slots
        for _ in range(5):
            match = s.match(full)
        assert len(match) == 4

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            iSLIPScheduler(4, iterations=0)
        with pytest.raises(ValueError):
            PIMScheduler(4, iterations=0)


class TestSwitchThroughput:
    def test_fifo_hol_limited(self):
        rng = np.random.default_rng(1)
        res = FIFOSwitch(16, rng).run(slots=6000, load=1.0, warmup=600)
        assert 0.55 <= res.throughput <= 0.66

    def test_voq_islip_near_full(self):
        rng = np.random.default_rng(1)
        res = VOQSwitch(16, iSLIPScheduler(16, 4), rng).run(
            slots=6000, load=1.0, warmup=600
        )
        assert res.throughput > 0.95

    def test_output_queued_ideal(self):
        rng = np.random.default_rng(1)
        res = OutputQueuedSwitch(8, rng).run(slots=6000, load=1.0, warmup=600)
        assert res.throughput > 0.97

    def test_ordering_fifo_voq_oq(self):
        rng1, rng2, rng3 = (np.random.default_rng(s) for s in (2, 2, 2))
        fifo = FIFOSwitch(8, rng1).run(4000, 1.0, 400).throughput
        voq = VOQSwitch(8, iSLIPScheduler(8, 4), rng2).run(4000, 1.0, 400).throughput
        oq = OutputQueuedSwitch(8, rng3).run(4000, 1.0, 400).throughput
        assert fifo < voq <= oq + 0.02

    def test_light_load_all_delivered(self):
        rng = np.random.default_rng(3)
        res = VOQSwitch(4, iSLIPScheduler(4, 1), rng).run(4000, 0.2, 400)
        assert res.utilization > 0.97
        assert res.mean_delay < 5

    def test_delay_grows_with_load(self):
        delays = []
        for load in (0.3, 0.7, 0.95):
            rng = np.random.default_rng(4)
            res = VOQSwitch(8, iSLIPScheduler(8, 2), rng).run(5000, load, 500)
            delays.append(res.mean_delay)
        assert delays[0] < delays[1] < delays[2]

    def test_scheduler_port_mismatch(self):
        with pytest.raises(ValueError):
            VOQSwitch(8, iSLIPScheduler(4), np.random.default_rng(0))


class TestCellsVsPackets:
    def test_cells_beat_variable_length(self):
        rng = np.random.default_rng(5)
        sizes = BimodalSizes(rng, 64, 1024, 0.5)
        cell = CellModeBackplane(8, sizes, rng, iSLIPScheduler(8, 4))
        cell_util = cell.run(8000).utilization
        rng = np.random.default_rng(5)
        sizes = BimodalSizes(rng, 64, 1024, 0.5)
        pkt_util = PacketModeBackplane(8, sizes, rng).run(8000).utilization
        assert cell_util > 0.85
        assert pkt_util < 0.70
        assert cell_util / pkt_util > 1.3

    def test_variable_length_costs_beyond_hol(self):
        """Packet mode is HOL-bound even at fixed sizes (~0.6 for N=8);
        size *variance* drags it further down -- both effects the cell
        discipline removes."""
        from repro.traffic.sizes import FixedSize

        rng = np.random.default_rng(6)
        fixed = PacketModeBackplane(8, FixedSize(64), rng).run(6000).utilization
        rng = np.random.default_rng(6)
        mixed = PacketModeBackplane(
            8, BimodalSizes(rng, 64, 1024, 0.5), rng
        ).run(6000).utilization
        assert 0.55 <= fixed <= 0.70  # the HOL band
        assert mixed < fixed
