#!/usr/bin/env python
"""Routing in a LEO satellite constellation with Raw routers on board.

Thesis section 8.8 proposes general-purpose Raw routers as the switching
element of low-earth-orbit constellations (Iridium-style), where memory
budgets and per-hop forwarding overheads are the binding constraints.
This demo builds an Iridium-like 6x11 walker constellation as a graph
(four inter-satellite links per bird = exactly the thesis's 4-port
router), routes ground-to-ground flows over shortest paths, and prices
each hop with the Raw router's measured per-packet forwarding latency
plus speed-of-light ISL delays.

Run:  python examples/leo_constellation.py
"""

import math

import networkx as nx

from repro.core.phases import quantum_cycles
from repro.config import CostModel
from repro.viz.tables import format_table

costs = CostModel.default()

# Iridium-like geometry.
PLANES = 6
SATS_PER_PLANE = 11
ALTITUDE_KM = 780
EARTH_RADIUS_KM = 6371
C_KM_PER_S = 299_792


def build_constellation() -> nx.Graph:
    """6 planes x 11 satellites; intra-plane + inter-plane ISLs.

    Every satellite has exactly four links (up/down in its plane,
    left/right to neighbor planes) -- a 4-port router per bird, the
    configuration the thesis's prototype provides.
    """
    g = nx.Graph()
    orbit_radius = EARTH_RADIUS_KM + ALTITUDE_KM
    for p in range(PLANES):
        for s in range(SATS_PER_PLANE):
            # Positions on a sphere: planes spread in longitude, sats in phase.
            lon = math.pi * p / PLANES
            phase = 2 * math.pi * s / SATS_PER_PLANE + (math.pi / SATS_PER_PLANE) * p
            x = orbit_radius * math.cos(phase) * math.cos(lon)
            y = orbit_radius * math.cos(phase) * math.sin(lon)
            z = orbit_radius * math.sin(phase)
            g.add_node((p, s), pos=(x, y, z))

    def dist(a, b):
        ax, ay, az = g.nodes[a]["pos"]
        bx, by, bz = g.nodes[b]["pos"]
        return math.dist((ax, ay, az), (bx, by, bz))

    for p in range(PLANES):
        for s in range(SATS_PER_PLANE):
            a = (p, s)
            intra = (p, (s + 1) % SATS_PER_PLANE)
            g.add_edge(a, intra, km=dist(a, intra))
            if p + 1 < PLANES:  # seam planes counter-rotate: no ISL there
                inter = (p + 1, s)
                g.add_edge(a, inter, km=dist(a, inter))
    return g


def hop_forwarding_us(packet_bytes: int) -> float:
    """Per-hop forwarding latency of the Raw router (phase model):
    ingress + one crossbar quantum + egress streaming."""
    words = costs.bytes_to_words(packet_bytes)
    cycles = (
        words  # ingress streaming
        + costs.ingress_header_cycles
        + quantum_cycles(words, expansion=2)  # crossbar
        + words  # egress streaming
    )
    return cycles / costs.clock_hz * 1e6


def main() -> None:
    g = build_constellation()
    degrees = [d for _, d in g.degree()]
    print(
        f"constellation: {g.number_of_nodes()} satellites, "
        f"{g.number_of_edges()} ISLs, degree min/max = "
        f"{min(degrees)}/{max(degrees)} (4-port Raw router per satellite)"
    )

    flows = [
        ("Boston -> London", (0, 0), (2, 1)),
        ("Boston -> Tokyo", (0, 0), (4, 5)),
        ("Sydney -> Paris", (5, 8), (2, 1)),
        ("Antipodal worst case", (0, 0), (3, 5)),
    ]
    rows = []
    for label, src, dst in flows:
        path = nx.shortest_path(g, src, dst, weight="km")
        km = sum(g.edges[a, b]["km"] for a, b in zip(path, path[1:]))
        prop_ms = km / C_KM_PER_S * 1e3
        hops = len(path) - 1
        fwd_ms = hops * hop_forwarding_us(1024) / 1e3
        rows.append(
            [label, hops, f"{km:.0f}", f"{prop_ms:.2f}", f"{fwd_ms:.3f}",
             f"{prop_ms + fwd_ms:.2f}"]
        )
    print(
        format_table(
            ["flow", "hops", "ISL km", "propagation ms", "forwarding ms", "total ms"],
            rows,
            title="\nground-to-ground latency over the constellation (1024B packets)",
        )
    )
    us = hop_forwarding_us(1024)
    print(
        f"\nper-hop Raw forwarding = {us:.2f} us -- two orders of magnitude "
        "under the ISL propagation delays, supporting the thesis's claim "
        "that a general-purpose single-chip router suffices on orbit."
    )


if __name__ == "__main__":
    main()
