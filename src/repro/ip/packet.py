"""IPv4 packets serialized as 32-bit words.

The Raw static network moves 32-bit words, so the packet representation
is word-oriented: a 5-word IPv4 header (no options on the fast path)
followed by payload words.  ``to_words``/``from_words`` round-trip, the
checksum helpers implement verification and the incremental TTL patch,
and ``synthesize`` builds deterministic test/benchmark packets of any
size.  A synthesized packet's payload word ``i`` is
``(ident * 2654435761 + i * 0x9E3779B9) mod 2**32``, with the unmasked
``ident`` (the header keeps only its low 16 bits).  The phase-level
router only ever takes a payload's length, so ``synthesize`` stores a
read-only sequence that builds those words on first read.
"""

from __future__ import annotations

import functools
from collections import abc
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.ip.checksum import incremental_update, internet_checksum

#: IPv4 header without options, in 32-bit words.
HEADER_WORDS_IPV4 = 5
HEADER_BYTES_IPV4 = HEADER_WORDS_IPV4 * 4
MAX_TOTAL_LENGTH = 0xFFFF


@functools.lru_cache(maxsize=None)
def _payload_step():
    """``i * 0x9E3779B9 mod 2**32`` for every payload word index up to
    IPv4's largest payload, as a ``uint32`` array; a payload's words add
    the ident term to a prefix of it.  Built by the first payload read
    and cached, so minting packets loads no numpy."""
    import numpy as np

    step = np.arange(MAX_TOTAL_LENGTH // 4 - HEADER_WORDS_IPV4, dtype=np.uint32)
    step *= np.uint32(0x9E3779B9)  # uint32 arithmetic wraps mod 2**32
    return step


class _PayloadWords(abc.Sequence):
    """A synthesized packet's payload: ``n`` words derived from ``ident``.

    ``len`` is free; the first index, iteration or comparison builds the
    tuple of Python ints the closed form gives, once, and everything
    after reads that tuple.  It compares and hashes like the tuple,
    shows its words in ``repr`` and pickles as ``(ident, n)``.
    """

    __slots__ = ("_ident", "_n", "_words")

    def __init__(self, ident: int, n: int):
        self._ident = ident
        self._n = n
        self._words = None

    def words(self) -> Tuple[int, ...]:
        words = self._words
        if words is None:
            import numpy as np

            # uint32 addition wraps mod 2**32; tolist() gives Python ints.
            base = np.uint32(self._ident * 2654435761 & 0xFFFFFFFF)
            words = self._words = tuple((_payload_step()[: self._n] + base).tolist())
        return words

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        return self.words()[index]

    def __iter__(self):
        return iter(self.words())

    def __eq__(self, other) -> bool:
        if isinstance(other, _PayloadWords):
            other = other.words()
        return self.words() == other

    def __hash__(self) -> int:
        return hash(self.words())

    def __repr__(self) -> str:
        return repr(self.words())

    def __reduce__(self):
        return _PayloadWords, (self._ident, self._n)


@dataclass
class IPv4Packet:
    """A mutable IPv4 packet. All multi-byte fields are host integers."""

    src: int
    dst: int
    ttl: int = 64
    protocol: int = 17  # UDP-ish; the router never looks past L3
    ident: int = 0
    tos: int = 0
    flags: int = 0
    frag_offset: int = 0
    checksum: int = 0
    #: A tuple, or a synthesized packet's words built on first read.
    payload: Sequence[int] = ()
    #: metadata stamped by the harness, not serialized:
    arrival_cycle: int = -1
    departure_cycle: int = -1
    input_port: int = -1
    output_port: int = -1

    # ------------------------------------------------------------------
    @property
    def total_length(self) -> int:
        return HEADER_BYTES_IPV4 + 4 * len(self.payload)

    @property
    def total_words(self) -> int:
        return HEADER_WORDS_IPV4 + len(self.payload)

    def header_halfwords(self, zero_checksum: bool = False) -> List[int]:
        """The ten 16-bit header fields, in wire order."""
        version_ihl = (4 << 4) | 5
        return [
            (version_ihl << 8) | self.tos,
            self.total_length,
            self.ident,
            (self.flags << 13) | self.frag_offset,
            (self.ttl << 8) | self.protocol,
            0 if zero_checksum else self.checksum,
            (self.src >> 16) & 0xFFFF,
            self.src & 0xFFFF,
            (self.dst >> 16) & 0xFFFF,
            self.dst & 0xFFFF,
        ]

    def fill_checksum(self) -> "IPv4Packet":
        """Compute and store the header checksum; returns self."""
        self.checksum = internet_checksum(self.header_halfwords(zero_checksum=True))
        return self

    def checksum_ok(self) -> bool:
        """``verify_checksum(self.header_halfwords())``, summed in place."""
        src = self.src
        dst = self.dst
        total = (
            (0x4500 | self.tos) + HEADER_BYTES_IPV4 + 4 * len(self.payload)
            + self.ident + (self.flags << 13 | self.frag_offset)
            + (self.ttl << 8 | self.protocol) + self.checksum
            + (src >> 16 & 0xFFFF) + (src & 0xFFFF)
            + (dst >> 16 & 0xFFFF) + (dst & 0xFFFF)
        )
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
        return total == 0xFFFF

    def decrement_ttl(self) -> None:
        """TTL-1 with the RFC 1624 incremental checksum patch."""
        if self.ttl <= 0:
            raise ValueError("TTL already zero; packet should have been dropped")
        old = (self.ttl << 8) | self.protocol
        self.ttl -= 1
        new = (self.ttl << 8) | self.protocol
        self.checksum = incremental_update(self.checksum, old, new)

    # ------------------------------------------------------------------
    def to_words(self) -> List[int]:
        """Serialize to 32-bit words (header then payload)."""
        hw = self.header_halfwords()
        header = [
            (hw[0] << 16) | hw[1],
            (hw[2] << 16) | hw[3],
            (hw[4] << 16) | hw[5],
            (hw[6] << 16) | hw[7],
            (hw[8] << 16) | hw[9],
        ]
        return header + list(self.payload)

    @classmethod
    def from_words(cls, words: Sequence[int]) -> "IPv4Packet":
        """Parse a word sequence produced by :meth:`to_words`."""
        if len(words) < HEADER_WORDS_IPV4:
            raise ValueError("truncated IPv4 header")
        w = list(words)
        version = (w[0] >> 28) & 0xF
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        ihl = (w[0] >> 24) & 0xF
        if ihl != 5:
            raise ValueError("IP options are not supported on the fast path")
        total_length = w[0] & 0xFFFF
        expected_words = (total_length + 3) // 4
        if expected_words != len(w):
            raise ValueError(
                f"length field says {expected_words} words, got {len(w)}"
            )
        pkt = cls(
            tos=(w[0] >> 16) & 0xFF,
            ident=(w[1] >> 16) & 0xFFFF,
            flags=(w[1] >> 13) & 0x7,
            frag_offset=w[1] & 0x1FFF,
            ttl=(w[2] >> 24) & 0xFF,
            protocol=(w[2] >> 16) & 0xFF,
            checksum=w[2] & 0xFFFF,
            src=w[3],
            dst=w[4],
            payload=tuple(w[HEADER_WORDS_IPV4:]),
        )
        return pkt

    # ------------------------------------------------------------------
    @classmethod
    def synthesize(
        cls,
        src: int,
        dst: int,
        size_bytes: int,
        ident: int = 0,
        ttl: int = 64,
    ) -> "IPv4Packet":
        """Build a checksummed packet of ``size_bytes`` (word-aligned).

        Payload words carry a deterministic pattern derived from
        ``ident`` so that egress reassembly and in-fabric computation can
        be verified end to end: word ``i`` is
        ``(ident * 2654435761 + i * 0x9E3779B9) mod 2**32``.
        """
        if size_bytes < HEADER_BYTES_IPV4:
            raise ValueError(f"packet must be >= {HEADER_BYTES_IPV4} bytes")
        if size_bytes % 4:
            raise ValueError("packet size must be word-aligned")
        if size_bytes > MAX_TOTAL_LENGTH:
            raise ValueError("packet exceeds IPv4 maximum length")
        if not 0 <= ttl <= 0xFF:
            raise ValueError(f"ttl {ttl} out of 8-bit range")
        ident16 = ident & 0xFFFF
        # fill_checksum() in place: the ten header halfwords with the
        # checksum field 0 (version/IHL 0x45, TOS, flags and fragment
        # offset all 0; total length == size_bytes; protocol 17), summed
        # and folded twice -- the sum is below 8 * 0xFFFF.
        total = (
            0x4500 + size_bytes + ident16 + (ttl << 8 | 17)
            + (src >> 16 & 0xFFFF) + (src & 0xFFFF)
            + (dst >> 16 & 0xFFFF) + (dst & 0xFFFF)
        )
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        return cls(
            src, dst, ttl, 17, ident16, 0, 0, 0, ~total & 0xFFFF,
            _PayloadWords(ident, size_bytes // 4 - HEADER_WORDS_IPV4),
        )

    def copy(self) -> "IPv4Packet":
        return replace(self)
