"""Routing tables: Patricia-backed and Degermark-compressed.

:class:`RoutingTable` is the forwarding structure the Lookup Processors
consult (thesis Fig 4-1: one per port, with the table in off-chip
memory).  :class:`CompressedTable` is the multibit-stride "small
forwarding tables" design (Degermark et al., SIGCOMM'97) the thesis
proposes for core-router lookups (section 8.2): at most three dependent
memory accesses per lookup regardless of table size.
:class:`LookupCostModel` converts either structure's access pattern into
Raw tile cycles through the cache model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.ip.addr import ADDR_BITS, Prefix
from repro.ip.trie import PatriciaTrie
from repro.raw.memory import DataCache

if TYPE_CHECKING:
    import numpy as np


class RoutingTable:
    """Longest-prefix-match table mapping prefixes to output ports."""

    def __init__(self, default_port: Optional[int] = None):
        self._trie = PatriciaTrie()
        self.default_port = default_port

    def __len__(self) -> int:
        return len(self._trie)

    def add_route(self, prefix: Prefix, port: int) -> None:
        if port < 0:
            raise ValueError("output port must be non-negative")
        self._trie.insert(prefix, port)

    def remove_route(self, prefix: Prefix) -> bool:
        return self._trie.delete(prefix)

    def lookup(self, addr: int) -> Optional[int]:
        port = self._trie.lookup(addr)
        return self.default_port if port is None else port

    def lookup_with_path(self, addr: int) -> Tuple[Optional[int], int]:
        """(port, node visits) -- visits drive the lookup cost model."""
        port, visits = self._trie.lookup_with_path(addr)
        return (self.default_port if port is None else port), visits

    def routes(self) -> List[Tuple[Prefix, int]]:
        return list(self._trie.items())

    @classmethod
    def from_routes(
        cls, routes: Iterable[Tuple[Prefix, int]], default_port: Optional[int] = None
    ) -> "RoutingTable":
        table = cls(default_port=default_port)
        for prefix, port in routes:
            table.add_route(prefix, port)
        return table

    @classmethod
    def uniform_split(cls, num_ports: int) -> "RoutingTable":
        """A tiny table splitting the address space evenly over the ports.

        This is the edge-router configuration the throughput experiments
        use -- route decision is constant-cost so the switch fabric is
        the measured quantity, matching the thesis's evaluation setup.
        """
        if num_ports < 1 or (num_ports & (num_ports - 1)):
            raise ValueError("num_ports must be a power of two")
        bits = num_ports.bit_length() - 1
        table = cls()
        for port in range(num_ports):
            table.add_route(Prefix(port << (ADDR_BITS - bits) if bits else 0, bits), port)
        return table


class CompressedTable:
    """16-8-8 multibit-stride forwarding table (Degermark-style).

    Level 1 is a 2^16-entry array indexed by the top 16 address bits;
    entries either resolve directly to a port or point at a 2^8-entry
    level-2 chunk, which may point at a level-3 chunk.  Lookup touches at
    most three memory locations -- the property that makes it fit a
    cache-constrained tile.
    """

    STRIDES = (16, 8, 8)

    def __init__(self, default_port: int = 0):
        import numpy as np

        self.default_port = default_port
        self._l1 = np.full(1 << 16, -1, dtype=np.int32)
        self._chunks: List[np.ndarray] = []  # level-2/3 chunks, 256 entries
        self._chunk_level: List[int] = []
        self._route_count = 0

    def __len__(self) -> int:
        return self._route_count

    # Encoding: entry >= 0 -> port; entry < -1 -> chunk index -(entry+2).
    @staticmethod
    def _as_chunk(idx: int) -> int:
        return -(idx + 2)

    @staticmethod
    def _chunk_index(entry: int) -> int:
        return -(entry) - 2

    def _new_chunk(self, fill: int, level: int) -> int:
        import numpy as np

        chunk = np.full(256, fill, dtype=np.int32)
        self._chunks.append(chunk)
        self._chunk_level.append(level)
        return len(self._chunks) - 1

    def build(self, routes: Iterable[Tuple[Prefix, int]]) -> "CompressedTable":
        """Populate from routes (shorter prefixes first = correct overrides)."""
        for prefix, port in sorted(routes, key=lambda r: r[0].length):
            self._insert(prefix, port)
            self._route_count += 1
        return self

    def _insert(self, prefix: Prefix, port: int) -> None:
        addr, plen = prefix.address, prefix.length
        top = addr >> 16
        if plen <= 16:
            span = 1 << (16 - plen)
            for i in range(top, top + span):
                entry = self._l1[i]
                if entry < -1:  # existing chunk: overwrite its default slots
                    self._fill_chunk(self._chunk_index(entry), port, overwrite_only=True)
                else:
                    self._l1[i] = port
            return
        entry = int(self._l1[top])
        if entry < -1:
            chunk_idx = self._chunk_index(entry)
        else:
            chunk_idx = self._new_chunk(entry if entry >= 0 else -1, level=2)
            self._l1[top] = self._as_chunk(chunk_idx)
        mid = (addr >> 8) & 0xFF
        if plen <= 24:
            span = 1 << (24 - plen)
            chunk = self._chunks[chunk_idx]
            for i in range(mid, mid + span):
                sub = int(chunk[i])
                if sub < -1:
                    self._fill_chunk(self._chunk_index(sub), port, overwrite_only=True)
                else:
                    chunk[i] = port
            return
        chunk = self._chunks[chunk_idx]
        sub = int(chunk[mid])
        if sub < -1:
            leaf_idx = self._chunk_index(sub)
        else:
            leaf_idx = self._new_chunk(sub if sub >= 0 else -1, level=3)
            chunk[mid] = self._as_chunk(leaf_idx)
        low = addr & 0xFF
        span = 1 << (32 - plen)
        leaf = self._chunks[leaf_idx]
        leaf[low : low + span] = port

    def _fill_chunk(self, chunk_idx: int, port: int, overwrite_only: bool) -> None:
        chunk = self._chunks[chunk_idx]
        mask = chunk == -1
        chunk[mask] = port
        if self._chunk_level[chunk_idx] == 2:
            for i in (chunk < -1).nonzero()[0]:
                self._fill_chunk(self._chunk_index(int(chunk[i])), port, overwrite_only)

    def lookup(self, addr: int) -> int:
        port, _ = self.lookup_with_path(addr)
        return port

    def lookup_with_path(self, addr: int) -> Tuple[int, int]:
        """(port, memory touches); touches <= 3 by construction."""
        entry = int(self._l1[addr >> 16])
        touches = 1
        if entry >= -1:
            return (entry if entry >= 0 else self.default_port), touches
        chunk = self._chunks[self._chunk_index(entry)]
        entry = int(chunk[(addr >> 8) & 0xFF])
        touches += 1
        if entry >= -1:
            return (entry if entry >= 0 else self.default_port), touches
        leaf = self._chunks[self._chunk_index(entry)]
        entry = int(leaf[addr & 0xFF])
        touches += 1
        return (entry if entry >= 0 else self.default_port), touches

    def memory_bytes(self) -> int:
        """Structure footprint (the paper's motivation: fit near the tile)."""
        return self._l1.nbytes + sum(c.nbytes for c in self._chunks)


@dataclass
class LookupCostModel:
    """Prices a lookup in Raw tile cycles.

    Each node/array visit is a dependent load: a cache hit costs the
    3-cycle load-to-use latency plus a couple of instructions to extract
    and branch; a miss stalls for the dynamic-network memory round trip.
    """

    cache: DataCache
    instr_per_visit: int = 4  #: extract bits, compare, branch (unrolled)
    fixed_overhead: int = 8  #: header field extraction + result write

    def cost(self, visits: int, node_addrs: Iterable[int]) -> int:
        cycles = self.fixed_overhead + visits * self.instr_per_visit
        for addr in node_addrs:
            cycles += self.cache.access_latency(addr)
        return cycles

    def cost_uniform(self, visits: int, hit_rate: float) -> float:
        """Expected cycles given a flat per-visit hit probability."""
        if not 0.0 <= hit_rate <= 1.0:
            raise ValueError("hit_rate must be in [0, 1]")
        per_visit = (
            hit_rate * self.cache.hit_cycles + (1 - hit_rate) * self.cache.miss_cycles
        )
        return self.fixed_overhead + visits * (self.instr_per_visit + per_visit)
