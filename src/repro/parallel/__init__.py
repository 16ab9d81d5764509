"""Within-run parallelism: split one simulation's topology across
token-window worker processes (:mod:`~repro.parallel.space_shard`), or
run K seeds of one cell as numpy lanes
(:mod:`~repro.parallel.manyworlds`) -- unlike :mod:`repro.sweep`, which
only parallelizes *across* independent cells."""

from repro.parallel.space_shard import (  # noqa: F401
    SpaceRunInfo,
    SpaceSpec,
    auto_partitions,
    run_space,
    run_space_serial,
)

__all__ = [
    "SpaceSpec",
    "SpaceRunInfo",
    "auto_partitions",
    "run_space",
    "run_space_serial",
]
