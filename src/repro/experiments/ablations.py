"""Design-choice ablations.

* **Second static network** (sections 5.3 / 8.1): the thesis claims the
  second network "does not improve the performance of the router
  because of the limiting factor of contention for output ports rather
  than insufficiency of inter-tile bandwidth".  We run the allocator
  with one and two ring networks under permutation and uniform traffic
  and show the delta is ~zero.
* **Quantum size** (section 4.3): fragmenting a 1,024-byte packet into
  smaller quanta multiplies the per-quantum control overhead; sweeping
  the transfer block size exposes the throughput cost of fragmentation
  and why the design sizes the block to a full packet.
* **Pipelining** (sections 5.2 / 6.5): turning off the header/body
  overlap adds the ingress header + lookup work to every quantum's
  critical path.
"""

from __future__ import annotations

from repro.core.allocator import Allocator
from repro.core.fabricsim import FabricSimulator, saturated_permutation
from repro.core.ring import RingGeometry
from repro.experiments.common import ExperimentResult
from repro.config import CostModel, SimConfig
from repro.traffic.build import fabric_source
from repro.traffic.spec import PatternSpec, SizeSpec, TrafficSpec


def run_second_network(
    quanta: int = 3000, seed: int = 0, size_bytes: int = 1024
) -> ExperimentResult:
    """One vs two static networks, permutation and uniform traffic."""
    words = CostModel.default().bytes_to_words(size_bytes)
    uniform_spec = TrafficSpec(
        pattern=PatternSpec(kind="uniform"), sizes=SizeSpec(bytes=size_bytes)
    )
    result = ExperimentResult(
        name="abl_2nd_network",
        description="Adding Raw's second static network (section 5.3 claim: no gain)",
    )
    ring = RingGeometry(4)
    for label, uniform in (("permutation", False), ("uniform", True)):
        rates = {}
        for networks in (1, 2):
            sim = FabricSimulator(ring=ring, allocator=Allocator(ring, networks=networks))
            if uniform:
                src = fabric_source(uniform_spec, SimConfig(seed=seed))
            else:
                src = saturated_permutation(words, shift=2)
            rates[networks] = sim.run(src, quanta=quanta, warmup_quanta=200).gbps
        result.add(f"{label}_1net_gbps", rates[1])
        result.add(f"{label}_2net_gbps", rates[2])
        result.add(
            f"{label}_speedup", rates[2] / rates[1] if rates[1] else 0.0, 1.0
        )
    result.notes = (
        "paper claim: speedup ~1.0 -- output-port contention, not ring "
        "bandwidth, is the binding constraint."
    )
    return result


def run_quantum_size(
    quanta_words=(16, 32, 64, 128, 256),
    size_bytes: int = 1024,
    quanta: int = 3000,
) -> ExperimentResult:
    """Throughput vs crossbar transfer-block size (fragmentation cost)."""
    result = ExperimentResult(
        name="abl_quantum",
        description=f"{size_bytes}B packets vs transfer-block size (words)",
    )
    words = CostModel.default().bytes_to_words(size_bytes)
    for q in quanta_words:
        sim = FabricSimulator(max_quantum_words=q)
        stats = sim.run(saturated_permutation(words, shift=2), quanta=quanta, warmup_quanta=200)
        result.add(f"quantum_{q}w", stats.gbps)
    full = result.measured(f"quantum_{quanta_words[-1]}w")
    small = result.measured(f"quantum_{quanta_words[0]}w")
    result.add("full_over_smallest", full / small if small else 0.0)
    result.notes = (
        "each fragment pays the control overhead once; the design sizes "
        "the block so every Fig 7-1 packet crosses in one quantum."
    )
    return result


def run_pipelining(size_bytes: int = 64, quanta: int = 3000) -> ExperimentResult:
    """Header/body overlap on vs off (the section 5.2 pipelining)."""
    result = ExperimentResult(
        name="abl_pipelining",
        description="Overlapping header processing with body streaming",
    )
    words = CostModel.default().bytes_to_words(size_bytes)
    rates = {}
    for pipelined in (True, False):
        sim = FabricSimulator(pipelined=pipelined)
        stats = sim.run(
            saturated_permutation(words, shift=2), quanta=quanta, warmup_quanta=200
        )
        rates[pipelined] = stats.gbps
    result.add("pipelined_gbps", rates[True])
    result.add("naive_gbps", rates[False])
    result.add("speedup_from_pipelining", rates[True] / rates[False])
    result.notes = (
        "small packets feel the overlap most: the ingress header + lookup "
        "work is comparable to the whole body transfer."
    )
    return result
