"""Computation in the communication interconnect (thesis section 8.3).

The thesis's third contribution is incorporating computation into the
switch fabric: header bits tell the Crossbar Processors what transform
to apply to the payload as it streams by, so data never has to detour to
a separate computational resource.  On Raw this is natural: routing a
word *through the tile processor* instead of across the switch costs the
ALU instruction(s) that touch it -- e.g. ``xor $csto, $csti, key`` is a
one-instruction-per-word stream cipher step.

Each :class:`StreamTransform` is both functional (``apply`` really
transforms the words, verified end to end in tests) and costed
(``cycles_per_word`` feeds the quantum timing, so the in-fabric-compute
benchmark shows the throughput price of each service).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.phases import DEFAULT_TIMING, PhaseTiming

_MASK32 = 0xFFFFFFFF


class StreamTransform:
    """Base class: a word-at-a-time payload transform with a cycle cost."""

    #: Tile-processor cycles per payload word (1 = full streaming rate,
    #: since the baseline switch path also moves one word per cycle).
    cycles_per_word: int = 1
    #: Value for the header's computation-request bits (section 8.3).
    header_bits: int = 0

    def apply(self, words: Sequence[int]) -> List[int]:
        raise NotImplementedError

    def body_cycles(self, words: int, expansion: int) -> int:
        """Route-body duration when this transform is in the path."""
        return words * self.cycles_per_word + expansion

    def quantum_cycles(
        self, words: int, expansion: int, timing: PhaseTiming = DEFAULT_TIMING
    ) -> int:
        return timing.control_total + self.body_cycles(words, expansion)


class Identity(StreamTransform):
    """No computation: words cross the switch crossbar untouched."""

    cycles_per_word = 1
    header_bits = 0

    def apply(self, words: Sequence[int]) -> List[int]:
        return list(words)


class XorCipher(StreamTransform):
    """Additive stream cipher: XOR with an LCG keystream.

    Two instructions per word on the tile processor: advance the
    keystream register, then ``xor $csto, $csti, key``.  Involutive for
    a fixed seed, so encrypt == decrypt (tested round-trip).
    """

    cycles_per_word = 2
    header_bits = 1

    def __init__(self, seed: int):
        self.seed = seed & _MASK32

    def _keystream(self, n: int) -> List[int]:
        key = self.seed
        out = []
        for _ in range(n):
            key = (key * 1664525 + 1013904223) & _MASK32
            out.append(key)
        return out

    def apply(self, words: Sequence[int]) -> List[int]:
        return [w ^ k for w, k in zip(words, self._keystream(len(words)))]


class ByteSwap(StreamTransform):
    """Endianness swap: one bit-manipulation instruction per word (Raw's
    ISA adds bit-level extraction/masking ops, section 3.2)."""

    cycles_per_word = 1
    header_bits = 2

    def apply(self, words: Sequence[int]) -> List[int]:
        return [
            ((w & 0xFF) << 24)
            | ((w & 0xFF00) << 8)
            | ((w >> 8) & 0xFF00)
            | ((w >> 24) & 0xFF)
            for w in words
        ]


class RunningChecksum(StreamTransform):
    """Payload checksum computed in-flight (e.g. for intrusion detection
    or TCP offload): an add per word; words pass through unchanged."""

    cycles_per_word = 2  # add + carry fold, software-pipelined
    header_bits = 3

    def __init__(self):
        self.last_checksum = 0

    def apply(self, words: Sequence[int]) -> List[int]:
        total = 0
        for w in words:
            total += w
            total = (total & _MASK32) + (total >> 32)
        self.last_checksum = total & _MASK32
        return list(words)
