"""Workload: pattern + sizes + arrivals, and the packet factory.

:class:`Workload` is the one object experiments configure, and
:class:`PacketFactory` mints real :class:`~repro.ip.packet.IPv4Packet`
objects (with addresses that the routing table resolves back to the
intended output port) for the full router and Click models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.ip.addr import ADDR_BITS
from repro.ip.packet import IPv4Packet
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.patterns import DestinationPattern
from repro.traffic.sizes import SizeDistribution


@dataclass
class Workload:
    """A complete traffic specification for an N-port router."""

    pattern: DestinationPattern
    sizes: SizeDistribution
    arrivals: ArrivalProcess

    @property
    def num_ports(self) -> int:
        return self.pattern.n

    def next_packet(self, port: int) -> Optional[Tuple[int, int]]:
        """(destination port, size bytes) or None if no arrival."""
        if not self.arrivals.offers(port):
            return None
        return self.pattern.next_dest(port), self.sizes.next_size()


#: Address words a seeded factory draws per refill of its block.
_ADDRESS_BLOCK = 512


class PacketFactory:
    """Mints IPv4 packets whose destination address maps to a port.

    The address space is carved into ``num_ports`` equal blocks (matching
    :meth:`repro.ip.lookup.RoutingTable.uniform_split`), so a packet
    destined for output ``j`` gets a random address inside block ``j``
    and the Lookup Processor genuinely resolves it.

    ``rng`` is read the way :func:`numpy.random.default_rng` reads it.
    A :class:`~numpy.random.Generator` (or bit generator) is *shared*:
    other draws may interleave with the factory's, so each packet takes
    its two ``integers`` draws from it as it is minted.  Anything else
    -- an int seed, a ``SeedSequence``, None -- builds a PCG64 generator
    only this factory reads, and the factory takes its raw 64-bit words
    in blocks instead.  Given a seed, it mints exactly the packets a
    factory given ``default_rng(seed)`` mints when nothing else reads
    that generator: a power-of-two ``integers`` range is the top bits of
    one ``next_uint32``, and PCG64 serves two ``next_uint32`` draws as
    the low then the high half of one 64-bit word, so the destination's
    host bits are the low half's top bits and the source is the high
    half.
    """

    def __init__(
        self, num_ports: int, rng: Union[np.random.Generator, int, None]
    ):
        if num_ports < 1 or (num_ports & (num_ports - 1)):
            raise ValueError("num_ports must be a power of two")
        self.n = num_ports
        shared = isinstance(rng, (np.random.Generator, np.random.BitGenerator))
        self.rng = np.random.default_rng(rng)
        self._bits = num_ports.bit_length() - 1
        self._host_bits = ADDR_BITS - self._bits
        self._ident = 0
        #: Unread raw words, last to be read first; None for a shared rng.
        self._block: Optional[List[int]] = None if shared else []

    def make(self, input_port: int, output_port: int, size_bytes: int) -> IPv4Packet:
        if not 0 <= output_port < self.n:
            raise ValueError("output port out of range")
        block = self._block
        if block is None:
            host = int(self.rng.integers(0, 1 << self._host_bits))
            src = int(self.rng.integers(0, 1 << ADDR_BITS))
        else:
            if not block:
                raw = self.rng.bit_generator.random_raw(_ADDRESS_BLOCK)
                block = self._block = raw[::-1].tolist()
            word = block.pop()
            host = (word & 0xFFFFFFFF) >> self._bits
            src = word >> 32
        self._ident += 1
        pkt = IPv4Packet.synthesize(
            src, output_port << self._host_bits | host, size_bytes, self._ident
        )
        pkt.input_port = input_port
        pkt.output_port = output_port
        return pkt

    def from_workload(self, workload: Workload, port: int) -> Optional[IPv4Packet]:
        drawn = workload.next_packet(port)
        if drawn is None:
            return None
        dest, nbytes = drawn
        return self.make(port, dest, nbytes)
