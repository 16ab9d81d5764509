"""Crossbar quanta of packets, as moved by the phase-level fabric.

The phase model prices transfers by word *counts*; the fragment keeps a
reference to the parent packet so the egress can reassemble, timestamp,
and (in the compute extension) verify the transformed payload.
"""

from __future__ import annotations

from typing import List

from repro.ip.packet import IPv4Packet
from repro.config import CostModel


class QuantumFragment:
    """One routing quantum's worth of one packet."""

    __slots__ = ("dest", "words", "index", "count", "packet")

    def __init__(
        self, dest: int, words: int, index: int, count: int, packet: IPv4Packet
    ):
        if words < 1:
            raise ValueError("fragment must carry at least one word")
        if not 0 <= index < count:
            raise ValueError("fragment index out of range")
        self.dest = dest
        self.words = words
        self.index = index
        self.count = count
        self.packet = packet

    @property
    def is_last(self) -> bool:
        return self.index == self.count - 1


def fragment_packet(
    packet: IPv4Packet,
    dest: int,
    max_quantum_words: int = CostModel.default().max_quantum_words,
) -> List[QuantumFragment]:
    """Split a packet into crossbar quanta (thesis section 4.3)."""
    total = packet.total_words
    if total <= max_quantum_words:
        # Every IMIX size fits one quantum.
        return [QuantumFragment(dest, total, 0, 1, packet)]
    count = (total + max_quantum_words - 1) // max_quantum_words
    frags = []
    remaining = total
    for i in range(count):
        w = min(remaining, max_quantum_words)
        remaining -= w
        frags.append(
            QuantumFragment(dest=dest, words=w, index=i, count=count, packet=packet)
        )
    return frags
