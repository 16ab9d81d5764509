"""On-chip networks: static links as channels, dynamic net as a latency model.

Static networks (section 3.3): flow-controlled, one 32-bit word per cycle
per hop, no headers, routes fixed by the switch-processor instruction
stream.  Each point-to-point link is a :class:`repro.sim.Channel` with
``capacity=1, latency=1``, which reproduces exactly that behaviour under
the kernel (see tests/test_sim_kernel.py::test_chain_throughput).

Dynamic networks: wormhole-routed, dimension-ordered, two-stage pipelined
routers, messages up to 32 words, nearest-neighbor ALU-to-ALU latency
15-30 cycles.  The router proper never touches them (the Rotating
Crossbar runs entirely on static network 1); they back the cache-miss
path and the non-blocking route-lookup extension (section 8.2), so a
latency model plus a mailbox delivery mechanism suffices.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import CostModel
from repro.raw.layout import Direction, NUM_TILES, manhattan, neighbor
from repro.sim.channel import Channel
from repro.sim.kernel import Put, Simulator, Timeout


class StaticNetwork:
    """One of Raw's two static networks, materialized as link channels.

    Links exist between every pair of adjacent tiles (both directions
    independently -- the network is full duplex) and at the chip edge,
    where the 16 periphery connections become the chip's I/O pins
    (section 3.4: the internal networks are multiplexed off-chip).
    """

    def __init__(
        self,
        sim: Simulator,
        index: int = 1,
        costs: CostModel = CostModel.default(),
    ):
        self.sim = sim
        self.index = index
        self.costs = costs
        self._links: Dict[Tuple[int, int], Channel] = {}
        self._edges: Dict[Tuple[int, Direction], Channel] = {}
        for tile in range(NUM_TILES):
            for direction in (
                Direction.NORTH,
                Direction.SOUTH,
                Direction.EAST,
                Direction.WEST,
            ):
                other = neighbor(tile, direction)
                if other is None:
                    self._edges[(tile, direction)] = sim.channel(
                        f"sn{index}.edge.t{tile}.{direction.value}",
                        capacity=costs.static_fifo_depth,
                        latency=costs.static_hop_cycles,
                    )
                elif (tile, other) not in self._links:
                    self._links[(tile, other)] = sim.channel(
                        f"sn{index}.t{tile}->t{other}",
                        capacity=costs.static_fifo_depth,
                        latency=costs.static_hop_cycles,
                    )
                    self._links[(other, tile)] = sim.channel(
                        f"sn{index}.t{other}->t{tile}",
                        capacity=costs.static_fifo_depth,
                        latency=costs.static_hop_cycles,
                    )

    def link(self, src: int, dst: int) -> Channel:
        """The directed link channel from tile ``src`` to adjacent ``dst``."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise ValueError(f"tiles {src} and {dst} are not adjacent") from None

    def edge(self, tile: int, direction: Direction) -> Channel:
        """The off-chip I/O channel of an edge tile in ``direction``.

        The same channel serves as input or output depending on which side
        (line card process or switch process) puts and which gets.
        """
        try:
            return self._edges[(tile, direction)]
        except KeyError:
            raise ValueError(
                f"tile {tile} has no chip edge to the {direction.value}"
            ) from None

    def edge_directions(self, tile: int):
        """Directions in which ``tile`` touches the chip edge."""
        return [d for (t, d) in self._edges if t == tile]

    def channels(self) -> Dict[str, Channel]:
        """Every link/edge channel keyed by its kernel name."""
        out = {ch.name: ch for ch in self._links.values()}
        out.update({ch.name: ch for ch in self._edges.values()})
        return out


class DynamicNetwork:
    """Latency model + mailbox delivery for Raw's dynamic networks."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        mailbox_capacity: int = 64,
        costs: CostModel = CostModel.default(),
    ):
        self.sim = sim
        self.costs = costs
        self._mailboxes: Dict[int, Channel] = {}
        if sim is not None:
            for tile in range(NUM_TILES):
                self._mailboxes[tile] = sim.channel(
                    f"dn.mbox.t{tile}", capacity=mailbox_capacity
                )

    @staticmethod
    def latency(
        src: int,
        dst: int,
        words: int = 1,
        costs: CostModel = CostModel.default(),
    ) -> int:
        """End-to-end cycles for a ``words``-long message ``src -> dst``.

        Nearest neighbor single-word = 15 cycles; each extra hop adds the
        two-stage router delay; each extra word streams behind the head
        flit at one word per cycle.  Matches the thesis's quoted 15-30
        cycle nearest-neighbor ALU-to-ALU range for 1..16-word payloads.
        """
        if words < 1 or words > costs.dynamic_max_message_words:
            raise ValueError(
                f"dynamic message must be 1..{costs.dynamic_max_message_words} words"
            )
        hops = max(manhattan(src, dst), 1)
        return (
            costs.dynamic_base_cycles
            + (hops - 1) * costs.dynamic_per_hop_cycles
            + (words - 1)
        )

    def mailbox(self, tile: int) -> Channel:
        if self.sim is None:
            raise RuntimeError("DynamicNetwork built without a simulator")
        return self._mailboxes[tile]

    def send(self, src: int, dst: int, message, words: int = 1):
        """Process fragment delivering ``message`` after the modeled latency.

        Usage inside a tile program::

            yield from dnet.send(my_tile, other_tile, payload, words=3)
        """
        yield Timeout(self.latency(src, dst, words, costs=self.costs))
        yield Put(self.mailbox(dst), message)
