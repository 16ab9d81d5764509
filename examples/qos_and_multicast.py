#!/usr/bin/env python
"""QoS weighted tokens and fabric multicast (thesis sections 5.4/8.6/8.7).

Part 1 gives port 0 a 4x token weight and shows its share of a contended
output moving from 25% to ~57% while no one starves.  Part 2 routes a
multicast packet through the Rotating Crossbar with fanout splitting and
compares against sending unicast copies.

Run:  python examples/qos_and_multicast.py
"""

from repro.core import (
    FabricSimulator,
    MulticastAllocator,
    RingGeometry,
    RotatingToken,
    WeightedToken,
)
from repro.experiments import multicast_ext
from repro.viz.tables import format_table


def qos_demo() -> None:
    print("=== weighted-token QoS: every input floods output 0 ===")
    rows = []
    for label, token in (
        ("plain token", RotatingToken(4)),
        ("weights 4:1:1:1", WeightedToken([4, 1, 1, 1])),
    ):
        sim = FabricSimulator(token=token)
        stats = sim.run(lambda port: (0, 128), quanta=4000)
        total = sum(stats.per_port_words)
        shares = [w / total for w in stats.per_port_words]
        rows.append([label] + [f"{s * 100:.1f}%" for s in shares])
    print(format_table(["policy", "port0", "port1", "port2", "port3"], rows))
    print("the weighted token reallocates the contended output's bandwidth")
    print("without code changes in the fabric -- only the rotation schedule.\n")


def multicast_demo() -> None:
    print("=== fabric multicast with fanout splitting ===")
    ring = RingGeometry(4)
    allocator = MulticastAllocator(ring)
    alloc = allocator.allocate(
        [frozenset({1, 2, 3}), None, frozenset({0}), None], token=0
    )
    for src, grant in sorted(alloc.grants.items()):
        dirs = ", ".join(f"{p.direction}({p.hops} hops)" for p in grant.paths) or "direct"
        print(
            f"  input {src}: serves outputs {sorted(grant.served)} via {dirs}"
        )
    print(f"  conflict-free: {alloc.is_conflict_free()}")
    res = multicast_ext.run(fanouts=(2, 3), quanta=2000)
    print()
    print(res.to_text())


if __name__ == "__main__":
    qos_demo()
    multicast_demo()
