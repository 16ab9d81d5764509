"""Packet-size distributions (word-aligned, as the fabric requires)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np

#: The packet sizes of thesis Fig 7-1.
PAPER_SIZES: Tuple[int, ...] = (64, 128, 256, 512, 1024)

_MIN_BYTES = 20  # IPv4 header


def _check_size(nbytes: int) -> int:
    if nbytes < _MIN_BYTES:
        raise ValueError(f"packet of {nbytes} bytes is smaller than an IP header")
    if nbytes % 4:
        raise ValueError("packet sizes must be word-aligned")
    return nbytes


class SizeDistribution:
    """Produces the byte size of each successive packet."""

    def next_size(self) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError


class FixedSize(SizeDistribution):
    """All packets the same size -- the thesis's evaluation setting."""

    def __init__(self, nbytes: int):
        self.nbytes = _check_size(nbytes)

    def next_size(self) -> int:
        return self.nbytes

    def mean(self) -> float:
        return float(self.nbytes)


class IMix(SizeDistribution):
    """Simple IMIX: 64 / 576 / 1024 bytes in 7:4:1 proportions
    (word-aligned stand-ins for the classic 40/576/1500 mix)."""

    SIZES = (64, 576, 1024)
    WEIGHTS = (7, 4, 1)

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        total = sum(self.WEIGHTS)
        self._p = [w / total for w in self.WEIGHTS]

    def next_size(self) -> int:
        return int(self.rng.choice(self.SIZES, p=self._p))

    def mean(self) -> float:
        import numpy as np

        return float(np.dot(self.SIZES, self._p))


class UniformSizes(SizeDistribution):
    """Uniform over word-aligned sizes in ``[lo, hi]``."""

    def __init__(self, rng: np.random.Generator, lo: int, hi: int):
        self.lo = _check_size(lo)
        self.hi = _check_size(hi)
        if self.lo > self.hi:
            raise ValueError("lo must be <= hi")
        self.rng = rng

    def next_size(self) -> int:
        words = int(self.rng.integers(self.lo // 4, self.hi // 4 + 1))
        return words * 4

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0


class BimodalSizes(SizeDistribution):
    """Small-or-large mix (ACKs vs MTU data), used by the cell-vs-
    variable-length baseline experiment."""

    def __init__(
        self,
        rng: np.random.Generator,
        small: int = 64,
        large: int = 1024,
        p_small: float = 0.5,
    ):
        if not 0.0 <= p_small <= 1.0:
            raise ValueError("p_small must be a probability")
        self.small = _check_size(small)
        self.large = _check_size(large)
        self.p_small = p_small
        self.rng = rng

    def next_size(self) -> int:
        return self.small if self.rng.random() < self.p_small else self.large

    def mean(self) -> float:
        return self.p_small * self.small + (1 - self.p_small) * self.large
