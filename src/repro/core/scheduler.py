"""The three-pass compile-time scheduler (thesis section 6.4).

Pass 1 -- *reservation walk*: starting from the master tile and moving
downstream, fill in reservations for the inter-crossbar and
crossbar-to-output static-network connections.  (This is exactly the
:class:`~repro.core.allocator.Allocator` rule; the walk order is the
token priority order.)

Pass 2 -- *minimization*: project every reachable global reservation
onto per-tile local configurations (:mod:`repro.core.config_space`) and
deduplicate, so the switch code for the whole space fits each tile's
8,192-word instruction memory.

Pass 3 -- *codegen*: convert each local configuration into Raw switch
pseudo-assembly -- a software-pipelined prologue of ``expansion`` cycles
(downstream tiles see the quantum's words late), a steady-state routing
loop, and a drain epilogue -- and, for the word-level simulator, into
executable :class:`~repro.raw.switchproc.RouteInstruction` streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.allocator import Allocation, Allocator, Request
from repro.core.config_space import (
    ConfigurationSpace,
    LocalConfig,
    MinimizationResult,
)
from repro.core.ring import RingGeometry
from repro.config import CostModel
from repro.raw.layout import (
    CROSSBAR_RING,
    Direction,
    ROUTER_LAYOUT,
    tile_xy,
)

#: Raw switch port mnemonics by physical direction.
_PORT_IN = {
    Direction.NORTH: "$cNi",
    Direction.SOUTH: "$cSi",
    Direction.EAST: "$cEi",
    Direction.WEST: "$cWi",
    Direction.PROC: "$csti",
}
_PORT_OUT = {
    Direction.NORTH: "$cNo",
    Direction.SOUTH: "$cSo",
    Direction.EAST: "$cEo",
    Direction.WEST: "$cWo",
    Direction.PROC: "$csto",
}


def _direction_between(src_tile: int, dst_tile: int) -> Direction:
    """Physical direction from ``src_tile`` toward adjacent ``dst_tile``."""
    sx, sy = tile_xy(src_tile)
    dx, dy = tile_xy(dst_tile)
    if (abs(sx - dx), abs(sy - dy)) not in ((0, 1), (1, 0)):
        raise ValueError(f"tiles {src_tile} and {dst_tile} are not adjacent")
    if dx > sx:
        return Direction.EAST
    if dx < sx:
        return Direction.WEST
    if dy > sy:
        return Direction.SOUTH
    return Direction.NORTH


@dataclass(frozen=True)
class TilePortMap:
    """Physical switch directions of one crossbar tile's logical ports."""

    ring_index: int
    tile: int
    ingress_dir: Direction  #: where 'in' words arrive from
    egress_dir: Direction  #: where 'out' words leave to
    cw_dir: Direction  #: toward the clockwise-next crossbar tile
    ccw_dir: Direction  #: toward the counterclockwise-next tile

    def client_port(self, client: str) -> str:
        """Switch input-port mnemonic for a Table 6.1 client name."""
        if client == "in":
            return _PORT_IN[self.ingress_dir]
        if client == "cwprev":
            return _PORT_IN[self.ccw_dir]  # cw words arrive from the ccw side
        if client == "ccwprev":
            return _PORT_IN[self.cw_dir]
        raise ValueError(f"unknown client {client!r}")

    def server_port(self, server: str) -> str:
        """Switch output-port mnemonic for a Table 6.1 server name."""
        if server == "out":
            return _PORT_OUT[self.egress_dir]
        if server == "cwnext":
            return _PORT_OUT[self.cw_dir]
        if server == "ccwnext":
            return _PORT_OUT[self.ccw_dir]
        raise ValueError(f"unknown server {server!r}")


def default_port_maps() -> List[TilePortMap]:
    """Port maps for the prototype's center-ring placement (Fig 7-2)."""
    maps = []
    n = len(CROSSBAR_RING)
    for r, tile in enumerate(CROSSBAR_RING):
        layout = ROUTER_LAYOUT[r]
        maps.append(
            TilePortMap(
                ring_index=r,
                tile=tile,
                ingress_dir=_direction_between(tile, layout.ingress),
                egress_dir=_direction_between(tile, layout.egress),
                cw_dir=_direction_between(tile, CROSSBAR_RING[(r + 1) % n]),
                ccw_dir=_direction_between(tile, CROSSBAR_RING[(r - 1) % n]),
            )
        )
    return maps


@dataclass
class CompiledSchedule:
    """Everything the run-time system needs, produced at 'compile time'.

    * ``minimization`` -- the deduplicated local-configuration set.
    * ``jump_table`` -- (headers, token) -> per-tile local config ids;
      this is the table the Crossbar Processors index after the header
      exchange ("computes the address into the jump table of
      configurations", section 6.5).
    * ``allocations`` -- the full allocation per global configuration
      (the simulators use it to move fragments).
    """

    ring: RingGeometry
    minimization: MinimizationResult
    jump_table: Dict[Tuple[Tuple[Request, ...], int], Tuple[int, ...]]
    allocations: Dict[Tuple[Tuple[Request, ...], int], Allocation]

    def lookup(
        self, headers: Sequence[Request], token: int
    ) -> Tuple[Tuple[int, ...], Allocation]:
        key = (tuple(headers), token)
        return self.jump_table[key], self.allocations[key]

    def config(self, config_id: int) -> LocalConfig:
        return self.minimization.local_configs[config_id]

    # -- pass 3: codegen ------------------------------------------------
    def assembly_for(
        self,
        config_id: int,
        port_map: TilePortMap,
        quantum_words: int = CostModel.default().max_quantum_words,
    ) -> List[str]:
        """Raw-like switch assembly for one local config on one tile.

        The listing is software-pipelined: ``expansion`` prologue cycles
        route only the upstream-fed servers that already have data (none
        on cycle 0 except 'in'-fed ones), then a steady-state loop, then
        a drain.  Emitted purely for inspection/verification -- the
        instruction *count* is what the IMEM-fit claim rests on.
        """
        cfg = self.config(config_id)
        pm = port_map
        moves_by_server = [
            (server, src)
            for server, src in (
                ("out", cfg.out_src),
                ("cwnext", cfg.cwnext_src),
                ("ccwnext", cfg.ccwnext_src),
            )
            if src is not None
        ]
        lines = [
            f"cfg{config_id}:  ; out<-{cfg.out_src} cw<-{cfg.cwnext_src} "
            f"ccw<-{cfg.ccwnext_src} exp={cfg.expansion} tile=t{pm.tile}"
        ]
        if not moves_by_server:
            lines.append(f"  nop  ; x{quantum_words} idle quantum")
            lines.append("  j $swPC  ; return to dispatch")
            return lines
        # Prologue: on cycle k (< expansion) only flows whose data has
        # already reached this tile can be routed.
        for k in range(cfg.expansion):
            active = [
                f"route {pm.client_port(src)}->{pm.server_port(server)}"
                for server, src in moves_by_server
                if src == "in"  # locally sourced words exist from cycle 0
            ]
            lines.append(
                "  " + (", ".join(active) if active else "nop") + f"  ; fill {k}"
            )
        steady = ", ".join(
            f"route {pm.client_port(src)}->{pm.server_port(server)}"
            for server, src in moves_by_server
        )
        lines.append(f"  {steady}  ; x{quantum_words - cfg.expansion} steady")
        # Drain: upstream-fed servers keep routing for ``expansion`` more
        # cycles after the local source finished.
        for k in range(cfg.expansion):
            active = [
                f"route {pm.client_port(src)}->{pm.server_port(server)}"
                for server, src in moves_by_server
                if src != "in"
            ]
            lines.append(
                "  " + (", ".join(active) if active else "nop") + f"  ; drain {k}"
            )
        lines.append("  j $swPC  ; return to dispatch")
        return lines

    def imem_words_per_tile(self) -> int:
        """Static switch-code size: dispatch + all config bodies.

        Each assembly line is one 64-bit switch instruction; the dispatch
        table needs one jump per configuration.
        """
        pm = default_port_maps()[0]
        total = self.minimization.minimized_size  # dispatch jump table
        for cid in range(self.minimization.minimized_size):
            total += len(self.assembly_for(cid, pm)) - 1  # minus label line
        return total

    def fits_imem(
        self, imem_words: int = CostModel.default().switch_mem_words
    ) -> bool:
        return self.imem_words_per_tile() <= imem_words

    def full_listing(
        self, quantum_words: int = CostModel.default().max_quantum_words
    ) -> str:
        pm = default_port_maps()[0]
        chunks = []
        for cid in range(self.minimization.minimized_size):
            chunks.append("\n".join(self.assembly_for(cid, pm, quantum_words)))
        return "\n\n".join(chunks)


class CompileTimeScheduler:
    """Builds a :class:`CompiledSchedule` for a ring."""

    def __init__(self, ring: RingGeometry, allocator: Optional[Allocator] = None):
        self.ring = ring
        self.allocator = allocator or Allocator(ring)
        self.space = ConfigurationSpace(ring, self.allocator)

    def reserve(self, headers: Sequence[Request], token: int) -> Allocation:
        """Pass 1 only: the reservation walk for one global configuration."""
        return self.allocator.allocate(headers, token)

    def compile(self) -> CompiledSchedule:
        """Run all three passes over the whole configuration space."""
        minimization = self.space.minimize()
        jump_table: Dict[Tuple[Tuple[Request, ...], int], Tuple[int, ...]] = {}
        allocations: Dict[Tuple[Tuple[Request, ...], int], Allocation] = {}
        for gc in self.space.enumerate_global():
            alloc = self.allocator.allocate(gc.headers, gc.token)
            locals_ = self.space.local_configs_for(alloc)
            key = (gc.headers, gc.token)
            jump_table[key] = tuple(minimization.config_id(c) for c in locals_)
            allocations[key] = alloc
        return CompiledSchedule(
            ring=self.ring,
            minimization=minimization,
            jump_table=jump_table,
            allocations=allocations,
        )
