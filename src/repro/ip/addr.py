"""IPv4 addresses and prefixes as plain integers.

Everything downstream (tries, tables, packets) works on 32-bit ints --
no per-address object allocation on the lookup fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    import numpy as np

ADDR_BITS = 32
ADDR_MASK = 0xFFFFFFFF


def ip_to_int(dotted: str) -> int:
    """Parse dotted-quad notation into a 32-bit integer."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet {part!r} out of range in {dotted!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Render a 32-bit integer as dotted-quad."""
    if not 0 <= value <= ADDR_MASK:
        raise ValueError(f"address {value:#x} out of 32-bit range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class Prefix:
    """A routing prefix ``address/length`` with a canonicalized address."""

    address: int
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= ADDR_BITS:
            raise ValueError(f"prefix length {self.length} out of range")
        masked = self.address & self.mask
        if masked != self.address:
            object.__setattr__(self, "address", masked)

    @property
    def mask(self) -> int:
        if self.length == 0:
            return 0
        return (ADDR_MASK << (ADDR_BITS - self.length)) & ADDR_MASK

    def matches(self, addr: int) -> bool:
        return (addr & self.mask) == self.address

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (bare addresses get /32)."""
        if "/" in text:
            addr, _, length = text.partition("/")
            return cls(ip_to_int(addr), int(length))
        return cls(ip_to_int(text), ADDR_BITS)

    def __str__(self) -> str:
        return f"{int_to_ip(self.address)}/{self.length}"

    def random_member(self, rng: np.random.Generator) -> int:
        """A uniformly random address covered by this prefix."""
        host_bits = ADDR_BITS - self.length
        if host_bits == 0:
            return self.address
        return self.address | int(rng.integers(0, 1 << host_bits))


def random_prefixes(
    n: int,
    rng: Optional[np.random.Generator] = None,
    min_len: int = 8,
    max_len: int = 24,
) -> List[Prefix]:
    """Generate ``n`` distinct random prefixes with BGP-like length skew.

    Real tables are dominated by /16-/24 with a mode at /24; we draw
    lengths from a triangular-ish distribution over ``[min_len, max_len]``
    weighted toward the long end, which is what the lookup benchmarks
    need (deep tries with realistic branching).
    """
    import numpy as np

    if rng is None:
        rng = np.random.default_rng(0)
    if min_len > max_len:
        raise ValueError("min_len must be <= max_len")
    lengths = np.arange(min_len, max_len + 1)
    weights = (lengths - min_len + 1).astype(float)
    weights /= weights.sum()
    seen = set()
    out: List[Prefix] = []
    while len(out) < n:
        length = int(rng.choice(lengths, p=weights))
        addr = int(rng.integers(0, 1 << ADDR_BITS, dtype=np.uint64))
        p = Prefix(addr, length)
        key = (p.address, p.length)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out
