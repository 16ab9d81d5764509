"""Crossbar ring geometry.

The Rotating Crossbar arranges the N Crossbar Processors in a ring with
full-duplex single-hop links between neighbors (on the 4x4 Raw prototype
the ring is the four center tiles; see :data:`repro.raw.layout.CROSSBAR_RING`).
Every input->output transfer is a path around the ring, clockwise or
counterclockwise, plus the dedicated 'in' link from the Ingress Processor
and 'out' link to the Egress Processor.  Because links are full duplex,
the clockwise and counterclockwise occupancies of a ring segment are
independent resources -- the property Fig 5-1's worked example exploits.

Everything is parameterized by N so the scalability experiments
(section 8.5) can grow the ring beyond the prototype's four ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

CW = "cw"
CCW = "ccw"


@dataclass(frozen=True, order=True)
class Link:
    """A directed, per-quantum-exclusive fabric resource.

    ``kind``:
      * ``"cw"``  -- ring segment from tile ``index`` to ``index+1 mod N``
      * ``"ccw"`` -- ring segment from tile ``index`` to ``index-1 mod N``
      * ``"out"`` -- crossbar tile ``index`` to its Egress Processor
      * ``"in"``  -- Ingress Processor to crossbar tile ``index``
    ``network`` selects which of Raw's static networks carries it (the
    router uses network 1 only; the second-network ablation uses both).
    """

    kind: str
    index: int
    network: int = 1

    def __str__(self) -> str:
        return f"{self.kind}{self.index}@sn{self.network}"


@dataclass(frozen=True)
class Path:
    """A granted route from input ``src`` to output ``dst``."""

    src: int
    dst: int
    direction: str  #: CW, CCW, or "direct" when src == dst
    links: Tuple[Link, ...]  #: ring segments only (excludes in/out)
    network: int = 1

    @property
    def hops(self) -> int:
        """Ring hops traversed == the path's expansion number source."""
        return len(self.links)


class RingGeometry:
    """Path and resource arithmetic for an N-tile crossbar ring."""

    def __init__(self, num_ports: int = 4):
        if num_ports < 2:
            raise ValueError("a crossbar ring needs at least 2 ports")
        self.n = num_ports
        #: (direction, network) -> that kind's segments by tile index,
        #: built once so paths share their Link objects.
        self._segments: Dict[Tuple[str, int], Tuple[Link, ...]] = {}

    # ------------------------------------------------------------------
    def cw_distance(self, src: int, dst: int) -> int:
        return (dst - src) % self.n

    def ccw_distance(self, src: int, dst: int) -> int:
        return (src - dst) % self.n

    def distance(self, src: int, dst: int, direction: str) -> int:
        if direction == CW:
            return self.cw_distance(src, dst)
        if direction == CCW:
            return self.ccw_distance(src, dst)
        raise ValueError(f"unknown direction {direction!r}")

    # ------------------------------------------------------------------
    def path(self, src: int, dst: int, direction: str, network: int = 1) -> Path:
        """The ring path from ``src`` to ``dst`` in ``direction``."""
        self._check_port(src)
        self._check_port(dst)
        if src == dst:
            return Path(src, dst, "direct", (), network)
        n = self.n
        if direction == CW:
            hops, step = (dst - src) % n, 1
        elif direction == CCW:
            hops, step = (src - dst) % n, -1
        else:
            raise ValueError(f"unknown direction {direction!r}")
        key = (direction, network)
        segments = self._segments.get(key)
        if segments is None:
            segments = self._segments[key] = tuple(
                Link(direction, i, network) for i in range(n)
            )
        links = tuple(segments[(src + step * i) % n] for i in range(hops))
        return Path(src, dst, direction, links, network)

    def candidate_paths(self, src: int, dst: int, networks: int = 1) -> List[Path]:
        """Paths to try, in the allocator's preference order.

        Shorter direction first, clockwise on ties (Fig 5-1's example is
        all ties and resolves clockwise-first); network 1 before network
        2.  Preferring the short direction matters: always-clockwise
        would route 3-hop long ways around and block permutations that
        the switch can in fact serve conflict-free.  For ``src == dst``
        there is a single direct path.
        """
        if src == dst:
            return [self.path(src, dst, CW, network=1)]
        if self.ccw_distance(src, dst) < self.cw_distance(src, dst):
            directions = (CCW, CW)
        else:
            directions = (CW, CCW)
        out: List[Path] = []
        for network in range(1, networks + 1):
            for direction in directions:
                out.append(self.path(src, dst, direction, network))
        return out

    # ------------------------------------------------------------------
    def ring_tiles_on_path(self, p: Path) -> List[int]:
        """All crossbar tiles a path touches, source through destination."""
        tiles = [p.src]
        node = p.src
        for _ in p.links:
            node = (node + 1) % self.n if p.direction == CW else (node - 1) % self.n
            tiles.append(node)
        return tiles

    def expansion(self, p: Path, tile: int) -> int:
        """Relative distance of ``tile`` from the path's data source.

        This is the "expansion number" of thesis section 6.2: a tile
        ``k`` ring-hops downstream sees the quantum's words ``k`` cycles
        late, and its switch code must be software-pipelined accordingly.
        """
        tiles = self.ring_tiles_on_path(p)
        try:
            return tiles.index(tile)
        except ValueError:
            raise ValueError(f"tile {tile} is not on path {p}") from None

    def all_links(self, networks: int = 1) -> List[Link]:
        out = []
        for network in range(1, networks + 1):
            for kind in (CW, CCW):
                out.extend(Link(kind, i, network) for i in range(self.n))
        out.extend(Link("out", i) for i in range(self.n))
        out.extend(Link("in", i) for i in range(self.n))
        return out

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n:
            raise ValueError(f"port {port} out of range for {self.n}-port ring")
