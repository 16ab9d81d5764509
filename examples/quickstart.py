#!/usr/bin/env python
"""Quickstart: the Raw router in ~60 lines.

Builds the 4-port single-chip router of the thesis, saturates it with
1,024-byte packets on a conflict-free pattern, and prints the headline
numbers (the thesis reports 26.9 Gbps / 3.3 Mpps peak), then shows the
Rotating Crossbar making one allocation decision and the compile-time
scheduler's view of the configuration space.

Run:  python examples/quickstart.py
"""

from repro.core import Allocator, RingGeometry
from repro.core.config_space import ConfigurationSpace
from repro.router import RawRouter
from repro.traffic import PacketFactory, PatternSpec, SizeSpec, SpecModel, TrafficSpec


def main() -> None:
    # --- 1. A saturated peak-throughput run --------------------------------
    router = RawRouter(warmup_cycles=30_000)
    spec = TrafficSpec(
        pattern=PatternSpec(kind="permutation", shift=2),  # port i -> (i+2) % 4
        sizes=SizeSpec(bytes=1024),
    )
    router.attach_saturated(SpecModel(spec, n=4, seed=0), PacketFactory(4, 0))
    result = router.run(max_cycles=300_000)
    print(f"peak throughput : {result.gbps:6.2f} Gbps   (thesis: 26.9)")
    print(f"peak packet rate: {result.mpps:6.2f} Mpps   (thesis: 3.3)")
    lat = result.latency_summary()
    print(f"mean latency    : {lat['mean_us']:6.2f} us over {int(lat['count'])} packets")

    # --- 2. One Rotating Crossbar decision (thesis Fig 5-1) ----------------
    ring = RingGeometry(4)
    alloc = Allocator(ring).allocate(requests=[2, 3, 0, 1], token=0)
    print("\nFig 5-1 allocation (token at port 0):")
    for src in range(4):
        grant = alloc.grants[src]
        print(
            f"  input {src} -> output {grant.dst}: {grant.path.direction:>3s}, "
            f"{grant.path.hops} ring hop(s)"
        )

    # --- 3. The configuration space (thesis chapter 6) ---------------------
    space = ConfigurationSpace(ring)
    minimized = space.minimize()
    print(
        f"\nconfiguration space: {minimized.global_size} global configs "
        f"-> {minimized.minimized_size} per-tile configs "
        f"({minimized.reduction_factor:.1f}x reduction; thesis: 2,500 -> 32, 78x)"
    )


if __name__ == "__main__":
    main()
