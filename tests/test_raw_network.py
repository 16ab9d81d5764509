"""Static/dynamic network models."""

import pytest

from repro.config import CostModel
from repro.raw.layout import Direction
from repro.raw.network import DynamicNetwork, StaticNetwork
from repro.sim.kernel import Get, Put, Simulator

costs = CostModel.default()


class TestStaticNetwork:
    def setup_method(self):
        self.sim = Simulator()
        self.net = StaticNetwork(self.sim)

    def test_adjacent_links_exist_both_ways(self):
        a = self.net.link(5, 6)
        b = self.net.link(6, 5)
        assert a is not b
        assert a.latency == costs.static_hop_cycles
        assert a.capacity == costs.static_fifo_depth

    def test_non_adjacent_rejected(self):
        with pytest.raises(ValueError):
            self.net.link(0, 5)
        with pytest.raises(ValueError):
            self.net.link(0, 2)

    def test_edges_only_at_periphery(self):
        assert self.net.edge(0, Direction.NORTH) is not None
        assert self.net.edge(4, Direction.WEST) is not None
        with pytest.raises(ValueError):
            self.net.edge(5, Direction.NORTH)  # 5 is interior

    def test_edge_directions(self):
        assert set(self.net.edge_directions(0)) == {Direction.NORTH, Direction.WEST}
        assert self.net.edge_directions(5) == []
        assert set(self.net.edge_directions(7)) == {Direction.EAST}

    def test_words_flow_across_link(self):
        link = self.net.link(5, 6)
        got = []

        def src():
            yield Put(link, 99)

        def dst():
            got.append((yield Get(link)))

        self.sim.add_process(src())
        self.sim.add_process(dst())
        self.sim.run()
        assert got == [99]
        assert self.sim.now == costs.static_hop_cycles

    def test_two_networks_independent(self):
        sim = Simulator()
        n1 = StaticNetwork(sim, index=1)
        n2 = StaticNetwork(sim, index=2)
        assert n1.link(5, 6) is not n2.link(5, 6)


class TestDynamicNetwork:
    def test_nearest_neighbor_range(self):
        # The thesis: nearest neighbor ALU-to-ALU is 15-30 cycles.
        lo = DynamicNetwork.latency(5, 6, words=1)
        hi = DynamicNetwork.latency(5, 6, words=16)
        assert lo == costs.dynamic_base_cycles == 15
        assert 15 <= lo <= hi <= 30

    def test_hops_add_latency(self):
        near = DynamicNetwork.latency(0, 1)
        far = DynamicNetwork.latency(0, 15)
        assert far == near + 5 * costs.dynamic_per_hop_cycles

    def test_message_size_bounds(self):
        with pytest.raises(ValueError):
            DynamicNetwork.latency(0, 1, words=0)
        with pytest.raises(ValueError):
            DynamicNetwork.latency(0, 1, words=costs.dynamic_max_message_words + 1)

    def test_mailbox_delivery(self):
        sim = Simulator()
        dn = DynamicNetwork(sim)
        got = []

        def sender():
            yield from dn.send(0, 15, "hello", words=3)

        def receiver():
            got.append((yield Get(dn.mailbox(15))))

        sim.add_process(sender())
        sim.add_process(receiver())
        sim.run()
        assert got == ["hello"]
        assert sim.now == DynamicNetwork.latency(0, 15, 3)

    def test_mailbox_requires_sim(self):
        with pytest.raises(RuntimeError):
            DynamicNetwork(None).mailbox(0)
