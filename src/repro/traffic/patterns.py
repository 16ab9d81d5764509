"""Destination patterns: who sends to whom."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class DestinationPattern:
    """Produces the destination port of each successive packet of an input."""

    def __init__(self, num_ports: int):
        if num_ports < 2:
            raise ValueError("need at least two ports")
        self.n = num_ports

    def next_dest(self, port: int) -> int:
        raise NotImplementedError


class UniformDestinations(DestinationPattern):
    """Uniform iid destinations -- the thesis's average-rate traffic.

    ``exclude_self`` matches a router testbench (traffic entering a port
    is never destined back out the same port); with it on, the measured
    average/peak ratio lands on the thesis's ~69%.
    """

    def __init__(self, num_ports: int, rng: np.random.Generator, exclude_self: bool = True):
        super().__init__(num_ports)
        self.rng = rng
        self.exclude_self = exclude_self

    def next_dest(self, port: int) -> int:
        if not self.exclude_self:
            return int(self.rng.integers(0, self.n))
        dest = int(self.rng.integers(0, self.n - 1))
        return dest if dest < port else dest + 1


class FixedPermutation(DestinationPattern):
    """Conflict-free peak traffic: port i -> perm[i], forever."""

    def __init__(self, perm: Sequence[int]):
        super().__init__(len(perm))
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{perm!r} is not a permutation")
        self.perm = list(perm)

    def next_dest(self, port: int) -> int:
        return self.perm[port]

    @classmethod
    def shift(cls, num_ports: int, k: int = 2) -> "FixedPermutation":
        """The i -> (i+k) mod N pattern (k=2 exercises the worst-case
        ring expansion on the 4-port prototype, as in Fig 5-1)."""
        return cls([(i + k) % num_ports for i in range(num_ports)])


class HotspotDestinations(DestinationPattern):
    """Every input prefers output ``hot`` with probability ``p_hot``."""

    def __init__(
        self,
        num_ports: int,
        rng: np.random.Generator,
        hot: int = 0,
        p_hot: float = 0.5,
    ):
        super().__init__(num_ports)
        if not 0.0 <= p_hot <= 1.0:
            raise ValueError("p_hot must be a probability")
        if not 0 <= hot < num_ports:
            raise ValueError("hot port out of range")
        self.rng = rng
        self.hot = hot
        self.p_hot = p_hot

    def next_dest(self, port: int) -> int:
        if self.rng.random() < self.p_hot:
            return self.hot
        return int(self.rng.integers(0, self.n))
