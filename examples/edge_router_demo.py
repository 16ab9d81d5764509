#!/usr/bin/env python
"""Edge router demo: real routing table, paced line cards, a load sweep.

This is the scenario the thesis targets (a 4-port *edge* router): a
routing table with realistic prefixes, packets arriving from line cards
at a configurable fraction of line rate, and the questions an operator
asks -- delivered throughput, latency percentiles, and where drops start.

Run:  python examples/edge_router_demo.py
"""

import numpy as np

from repro.ip import RoutingTable, random_prefixes
from repro.router import RawRouter
from repro.traffic import PacketFactory, PatternSpec, SizeSpec, SpecModel, TrafficSpec
from repro.viz.tables import format_table


def build_edge_table(rng: np.random.Generator, num_ports: int = 4) -> RoutingTable:
    """A small-ISP style table: a default split plus specific customers."""
    table = RoutingTable.uniform_split(num_ports)
    for i, prefix in enumerate(random_prefixes(64, rng, min_len=16, max_len=24)):
        table.add_route(prefix, i % num_ports)
    return table


def run_at_load(load: float, rng: np.random.Generator, packets_per_port: int = 300):
    table = build_edge_table(rng)
    router = RawRouter(table=table, warmup_cycles=20_000)
    # Saturated draws: the line cards pace them (with ``rng``).
    spec = TrafficSpec(pattern=PatternSpec(kind="uniform"), sizes=SizeSpec(bytes=512))
    workload = SpecModel(spec, n=4, seed=42)
    factory = PacketFactory(4, 42)
    sources = router.attach_linecards(
        workload, factory, offered_load=load, rng=rng, packets_per_port=packets_per_port
    )
    result = router.run(target_packets=int(packets_per_port * 4 * 0.9))
    lat = result.latency_summary()
    drops = sum(s.dropped for s in sources)
    offered = sum(s.sent for s in sources)
    return {
        "load": load,
        "gbps": result.gbps,
        "mean_us": lat.get("mean_us", float("nan")),
        "p99_us": lat.get("p99_us", float("nan")),
        "drop_pct": 100.0 * drops / offered if offered else 0.0,
    }


def main() -> None:
    rows = []
    for load in (0.2, 0.4, 0.6, 0.8, 0.95):
        rng = np.random.default_rng(42)
        r = run_at_load(load, rng)
        rows.append(
            [f"{r['load']:.2f}", f"{r['gbps']:.2f}", f"{r['mean_us']:.2f}",
             f"{r['p99_us']:.2f}", f"{r['drop_pct']:.1f}%"]
        )
    print(
        format_table(
            ["offered load", "Gbps", "mean lat (us)", "p99 lat (us)", "drops"],
            rows,
            title="4-port Raw edge router, 512B packets, uniform traffic",
        )
    )
    print(
        "\nlatency stays flat until the fabric's saturation point, then "
        "queueing takes over -- the input-queued FIFO behaviour the thesis "
        "accepts for an edge router (section 4.4)."
    )


if __name__ == "__main__":
    main()
