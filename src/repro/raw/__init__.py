"""Model of the Raw tiled processor (thesis chapter 3).

The Raw prototype is a 4x4 grid of tiles at 250 MHz; each tile couples a
MIPS-like tile processor with a programmable static-switch processor, two
static networks and two dynamic networks.  This package models the parts
of the chip the router design depends on (the published cycle-cost
model -- send-to-use latency, link bandwidth, cache timing, branch costs,
plus the router's calibrated per-quantum control overhead -- is
:class:`repro.config.CostModel`):

* :mod:`repro.raw.layout` -- grid geometry and the port-to-tile mapping of
  thesis Figs 4-1 / 7-2.
* :mod:`repro.raw.memory` -- the per-tile 2-way set-associative data cache.
* :mod:`repro.raw.network` -- static-network links as flow-controlled
  channels and a latency model of the dynamic (wormhole) network.
* :mod:`repro.raw.switchproc` -- the programming model: switch route
  schedules as kernel processes.
* :mod:`repro.raw.chip` -- assembles a whole chip simulation.
"""

from repro.raw.layout import (
    GRID_WIDTH,
    GRID_HEIGHT,
    NUM_TILES,
    Direction,
    PortLayout,
    ROUTER_LAYOUT,
    tile_xy,
    tile_id,
    neighbor,
    manhattan,
    CROSSBAR_RING,
    INGRESS_TILES,
    EGRESS_TILES,
    LOOKUP_TILES,
)
from repro.raw.memory import DataCache, CacheStats
from repro.raw.network import StaticNetwork, DynamicNetwork
from repro.raw.switchproc import SwitchProcessor, RouteInstruction
from repro.raw.chip import RawChip

__all__ = [
    "GRID_WIDTH",
    "GRID_HEIGHT",
    "NUM_TILES",
    "Direction",
    "PortLayout",
    "ROUTER_LAYOUT",
    "tile_xy",
    "tile_id",
    "neighbor",
    "manhattan",
    "CROSSBAR_RING",
    "INGRESS_TILES",
    "EGRESS_TILES",
    "LOOKUP_TILES",
    "DataCache",
    "CacheStats",
    "StaticNetwork",
    "DynamicNetwork",
    "SwitchProcessor",
    "RouteInstruction",
    "RawChip",
]
