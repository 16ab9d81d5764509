"""One authority for every derived seed in the repository.

Child-seed derivation used to be scattered: :mod:`repro.sweep` hashed a
cell's key/value assignment with ``zlib.crc32`` and
:class:`~repro.traffic.model.SpecModel` masked its seed to 63 bits --
each its own convention, none documented.  This module is the single
home for both, plus the :func:`world_seed` axis the many-worlds engine
(:mod:`repro.parallel.manyworlds`) fans a base seed across.

Every function here is pinned bit-for-bit by ``tests/test_seeds.py``:
existing derived seeds (and therefore every golden number seeded on
them) must never change.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict

#: Seeds handed to engines/sweep cells live in [0, 2**31) -- the range
#: ``np.random.default_rng`` and every historical harness accepted.
SEED_RANGE = 2**31

#: :class:`~repro.traffic.model.SpecModel` folds seeds into 63 bits
#: (keeps ``seed * const`` arithmetic on the fast small-int path).
SPEC_SEED_MASK = (1 << 63) - 1


def cell_seed(base_seed: int, cell: Dict[str, Any]) -> int:
    """Deterministic per-cell sweep seed: stable across runs and worker
    counts (moved verbatim from ``repro.sweep``; pinned bit-for-bit)."""
    canonical = json.dumps(cell, sort_keys=True, default=str).encode()
    return (base_seed + zlib.crc32(canonical)) % SEED_RANGE


def world_seed(base_seed: int, world: int) -> int:
    """Deterministic per-world Monte Carlo seed for ``--worlds`` runs.

    World 0 *is* the base seed, so a one-world run (and the vectorized
    engine's world-0 bit-identity contract) lines up exactly with the
    scalar run a cell performs: every engine draws its traffic from the
    same counter streams, the flat ``pattern=`` workloads included.
    Higher worlds are splitmix64 draws off the base, folded into
    :data:`SEED_RANGE`.
    """
    if world < 0:
        raise ValueError(f"world index must be >= 0, got {world}")
    if world == 0:
        return int(base_seed) % SEED_RANGE
    # Imported lazily: repro.traffic.__init__ pulls in the traffic model,
    # which imports this module -- a top-level rng import would be circular.
    from repro.traffic.rng import draw_u64

    return draw_u64(int(base_seed), 1, world) % SEED_RANGE


def spec_seed(seed: int) -> int:
    """The seed as :class:`~repro.traffic.model.SpecModel` stores it."""
    return int(seed) & SPEC_SEED_MASK
