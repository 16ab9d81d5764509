"""The packet factory: real IPv4 packets for the router and Click models.

:class:`PacketFactory` mints :class:`~repro.ip.packet.IPv4Packet`
objects with addresses that the routing table resolves back to the
intended output port, for the destinations and sizes a
:class:`~repro.traffic.model.TrafficModel` draws.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ip.addr import ADDR_BITS
from repro.ip.packet import IPv4Packet
from repro.traffic.model import TrafficModel

#: Address words the factory draws per refill of its block.
_ADDRESS_BLOCK = 512


class PacketFactory:
    """Mints IPv4 packets whose destination address maps to a port.

    The address space is carved into ``num_ports`` equal blocks (matching
    :meth:`repro.ip.lookup.RoutingTable.uniform_split`), so a packet
    destined for output ``j`` gets a random address inside block ``j``
    and the Lookup Processor genuinely resolves it.

    ``seed`` is read the way :func:`numpy.random.default_rng` reads it
    (an int, a ``SeedSequence`` or None); the PCG64 generator it builds
    is the factory's alone, and the factory takes its raw 64-bit words
    in blocks.  Each word addresses one packet: a power-of-two
    ``integers`` range is the top bits of one ``next_uint32``, and PCG64
    serves two ``next_uint32`` draws as the low then the high half of
    one 64-bit word, so the destination's host bits are the low half's
    top bits and the source is the high half -- the packets a factory
    would mint drawing ``integers(0, 2**host_bits)`` then ``integers(0,
    2**32)`` per packet from ``default_rng(seed)``.
    """

    def __init__(self, num_ports: int, seed=None):
        import numpy as np

        if num_ports < 1 or (num_ports & (num_ports - 1)):
            raise ValueError("num_ports must be a power of two")
        if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
            raise TypeError(
                "PacketFactory takes a seed, not a generator: it draws its "
                "address words ahead in blocks, which would silently change "
                "the stream anyone else holding a shared generator sees"
            )
        self.n = num_ports
        self.rng = np.random.default_rng(seed)
        self._bits = num_ports.bit_length() - 1
        self._host_bits = ADDR_BITS - self._bits
        self._ident = 0
        #: Unread raw words, last to be read first.
        self._block: List[int] = []

    def make(self, input_port: int, output_port: int, size_bytes: int) -> IPv4Packet:
        if not 0 <= output_port < self.n:
            raise ValueError("output port out of range")
        block = self._block
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

    def from_workload(self, workload: TrafficModel, port: int) -> Optional[IPv4Packet]:
        """The packet ``workload`` draws for ``port``, or None for none."""
        drawn = workload.next_packet(port)
        if drawn is None:
            return None
        dest, nbytes = drawn
        return self.make(port, dest, nbytes)
