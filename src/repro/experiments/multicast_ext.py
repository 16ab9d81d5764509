"""Section 8.6: multicast in the switch fabric vs ingress replication.

The fabric replicates a multicast word at every crossbar tile it passes
(one-read/many-write switch instructions), so a fanout-F packet crosses
the ring once; a unicast-only fabric must send it F times from the
ingress.  The experiment measures delivered copies per cycle both ways
-- the fanout-splitting gain the thesis imports from the GSR argument.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.multicast import MulticastAllocator
from repro.core.phases import idle_quantum_cycles, quantum_cycles
from repro.core.ring import RingGeometry
from repro.core.token import RotatingToken
from repro.experiments.common import ExperimentResult
from repro.config import CostModel


def _run_multicast_fabric(
    fanout: int, words: int, quanta: int, rng: np.random.Generator
) -> Tuple[float, float]:
    """(copies per kilocycle, cycles per packet) with fabric replication."""
    ring = RingGeometry(4)
    allocator = MulticastAllocator(ring)
    token = RotatingToken(4)
    pending: List[Optional[FrozenSet[int]]] = [None] * 4
    copies = 0
    packets = 0
    cycles = 0
    for _ in range(quanta):
        for port in range(4):
            if pending[port] is None:
                others = [p for p in range(4) if p != port]
                dests = rng.choice(others, size=fanout, replace=False)
                pending[port] = frozenset(int(d) for d in dests)
        alloc = allocator.allocate(pending, token.master)
        body = 0
        for grant in alloc.grants.values():
            body = max(body, words + grant.expansion)
        cycles += (
            quantum_cycles(0, 0) + body if alloc.grants else idle_quantum_cycles()
        )
        for src, grant in alloc.grants.items():
            copies += grant.copies
            remaining = pending[src] - grant.served
            if remaining:
                pending[src] = remaining
            else:
                pending[src] = None
                packets += 1
        token.advance()
    return copies * 1000.0 / cycles, cycles / max(packets, 1)  # cycles/pkt


def _run_ingress_replication(
    fanout: int, words: int, quanta: int, rng: np.random.Generator
) -> float:
    """Copies per kilocycle when the ingress sends F unicast copies."""
    from repro.core.allocator import Allocator

    ring = RingGeometry(4)
    allocator = Allocator(ring)
    token = RotatingToken(4)
    queues: List[List[int]] = [[] for _ in range(4)]
    copies = 0
    cycles = 0
    for _ in range(quanta):
        for port in range(4):
            if not queues[port]:
                others = [p for p in range(4) if p != port]
                dests = rng.choice(others, size=fanout, replace=False)
                queues[port] = [int(d) for d in dests]
        requests = tuple(q[0] if q else None for q in queues)
        alloc = allocator.allocate(requests, token.master)
        body = 0
        for grant in alloc.grants.values():
            body = max(body, words + grant.expansion)
        cycles += (
            quantum_cycles(0, 0) + body if alloc.grants else idle_quantum_cycles()
        )
        for src in alloc.grants:
            queues[src].pop(0)
            copies += 1
        token.advance()
    return copies * 1000.0 / cycles


def run(
    fanouts=(2, 3), size_bytes: int = 512, quanta: int = 3000, seed: int = 5
) -> ExperimentResult:
    result = ExperimentResult(
        name="ext_multicast",
        description="Fabric multicast (fanout splitting) vs ingress replication",
    )
    words = CostModel.default().bytes_to_words(size_bytes)
    for fanout in fanouts:
        rng = np.random.default_rng(seed)
        fabric_rate, quanta_per_pkt = _run_multicast_fabric(fanout, words, quanta, rng)
        rng = np.random.default_rng(seed)
        ingress_rate = _run_ingress_replication(fanout, words, quanta, rng)
        result.add(f"fabric_copies_per_kcyc_F{fanout}", fabric_rate)
        result.add(f"ingress_copies_per_kcyc_F{fanout}", ingress_rate)
        result.add(
            f"fabric_gain_F{fanout}",
            fabric_rate / ingress_rate if ingress_rate else 0.0,
        )
        result.add(f"fabric_cycles_per_packet_F{fanout}", quanta_per_pkt)
    result.notes = (
        "the GSR argument the thesis adopts: replicating in the fabric "
        "instead of the input raises multicast throughput (McKeown "
        "quotes up to +40% for fanout splitting)."
    )
    return result
