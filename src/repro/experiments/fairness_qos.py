"""Sections 5.4 / 8.7: fairness of the token and weighted-token QoS.

Fairness: under adversarial traffic (everyone hammering one output) no
input waits more than N-1 quanta while backlogged, and long-run service
is even (Jain's index ~1).  QoS: giving port 0 a weight of w shifts its
share of a contended output toward w/(w+N-1) without starving others.
"""

from __future__ import annotations

from repro.core.fabricsim import FabricSimulator
from repro.core.fairness import analyze_service, jains_index
from repro.core.ring import RingGeometry
from repro.core.token import RotatingToken, WeightedToken
from repro.experiments.common import ExperimentResult
from repro.config import CostModel


def run_fairness(quanta: int = 4000, seed: int = 3, size_bytes: int = 256) -> ExperimentResult:
    """Starvation bound + service evenness under full contention."""
    result = ExperimentResult(
        name="fairness",
        description="Token fairness under single-output hotspot (all->0)",
    )
    words = CostModel.default().bytes_to_words(size_bytes)
    ring = RingGeometry(4)
    sim = FabricSimulator(ring=ring, keep_history=True)
    # Adversarial: every input always wants output 0.
    stats = sim.run(lambda port: (0, words), quanta=quanta)
    report = analyze_service(sim.history)
    result.add("worst_starvation_gap", report.worst_starvation_gap(), ring.n - 1)
    result.add("jains_index", report.jains, 1.0)
    result.add("min_service_ratio", min(report.service_ratio))
    result.add("hotspot_throughput_frac", stats.words_per_cycle)
    result.notes = (
        "bound: a backlogged input is master at least once every N "
        "quanta and a requesting master is always granted, so the gap "
        "is at most N-1 = 3."
    )
    return result


def run_qos(
    weights=(4, 1, 1, 1), quanta: int = 6000, seed: int = 4, size_bytes: int = 256
) -> ExperimentResult:
    """Weighted tokens shift bandwidth shares under contention."""
    result = ExperimentResult(
        name="qos_weighted_token",
        description=f"Weighted round-robin token, weights={list(weights)}, all->0 hotspot",
    )
    words = CostModel.default().bytes_to_words(size_bytes)
    ring = RingGeometry(len(weights))

    # Plain token: equal shares of the contended output.
    sim_plain = FabricSimulator(ring=ring, token=RotatingToken(ring.n))
    plain = sim_plain.run(lambda port: (0, words), quanta=quanta)
    # Weighted token, recorded so the journey tracker buckets latency by
    # weight class (ports labeled by their token weight).
    from repro.telemetry import runtime as _telemetry

    sim_w = FabricSimulator(ring=ring, token=WeightedToken(list(weights)))
    with _telemetry.capture() as tel:
        tel.journeys.set_port_classes(tuple(f"w{w}" for w in weights))
        weighted = sim_w.run(lambda port: (0, words), quanta=quanta)

    total_plain = sum(plain.per_port_words)
    total_w = sum(weighted.per_port_words)
    expected_share = weights[0] / sum(weights)
    result.add("plain_share_port0", plain.per_port_words[0] / total_plain, 1 / ring.n)
    result.add("weighted_share_port0", weighted.per_port_words[0] / total_w, expected_share)
    result.add(
        "weighted_min_share",
        min(weighted.per_port_words) / total_w,
        min(weights) / sum(weights),
    )
    result.add("weighted_jains", jains_index(weighted.per_port_words))
    # Per-class journey latency tails: the weighted class should see a
    # shorter queueing tail on the contended output than the weight-1
    # classes (the QoS story told in latency, not just bandwidth share).
    for label in tel.journeys.dim_labels("class"):
        h = tel.journeys.dim_hist[("class", label)]
        result.add(f"journey_p50_{label}", h.percentile(50))
        result.add(f"journey_p99_{label}", h.percentile(99))
    result.notes = (
        "the thesis: QoS 'can be done simply by allowing different ports "
        "a weighted amount of differing time with the token' (section 5.4)."
    )
    return result
