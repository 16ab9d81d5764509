"""Cross-model consistency properties.

The repository has three engines for the same fabric (quantum-level
FabricSimulator, phase-level RawRouter, word-level WordLevelRouter) and
a closed-form peak model.  These properties pin them to each other over
randomized workloads -- a change that breaks one model's accounting
breaks a test here even if each model stays self-consistent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.fabricsim import FabricSimulator, saturated_permutation
from repro.core.phases import quantum_cycles
from repro.traffic.spec import spec_from_legacy


word_sizes = st.integers(min_value=6, max_value=256)  # >= IPv4 header words
shifts = st.integers(min_value=1, max_value=3)


@given(words=word_sizes, shift=shifts)
@settings(max_examples=30, deadline=None)
def test_fabric_matches_closed_form_peak(words, shift):
    """FabricSimulator under any saturated permutation == the arithmetic
    of the quantum formula (grant expansion included)."""
    sim = FabricSimulator()
    stats = sim.run(saturated_permutation(words, shift), quanta=300, warmup_quanta=30)
    # All four ports stream every quantum with this conflict-free source.
    expansion = min(shift, 4 - shift)
    expected = 4 * words / quantum_cycles(words, expansion)
    assert stats.words_per_cycle == pytest.approx(expected, rel=0.02)


@given(words=word_sizes, shift=shifts, seed=st.integers(0, 99))
@settings(max_examples=10, deadline=None)
def test_router_pipeline_never_beats_fabric(words, shift, seed):
    """The full router (with ingress/egress stages) can equal but never
    exceed the bare fabric's rate -- pipelines add stages, not bandwidth."""
    from repro.router.router import RawRouter
    from repro.traffic.build import router_traffic

    size_bytes = words * 4
    fabric = FabricSimulator().run(
        saturated_permutation(words, shift), quanta=400, warmup_quanta=40
    )
    router = RawRouter(warmup_cycles=10_000)
    spec = spec_from_legacy("permutation", size_bytes, shift=shift)
    model, factory, _ = router_traffic(spec, SimConfig(seed=seed))
    router.attach_saturated(model, factory)
    full = router.run(max_cycles=80_000)
    assert full.gbps <= fabric.gbps * 1.02
    assert full.gbps == pytest.approx(fabric.gbps, rel=0.05)


@given(
    words=st.integers(1, 300),
    quantum=st.integers(8, 256),
)
@settings(max_examples=40, deadline=None)
def test_fragmentation_overhead_formula(words, quantum):
    """Fragmenting a packet into q-word quanta costs exactly one control
    overhead per fragment -- the fabric's measured cycles agree with
    summing the quantum formula over the fragments."""
    sim = FabricSimulator(max_quantum_words=quantum)
    stats = sim.run(saturated_permutation(words, 2), quanta=200, warmup_quanta=20)
    frags = -(-words // quantum)
    per_packet = sum(
        quantum_cycles(min(quantum, words - i * quantum), 2) for i in range(frags)
    )
    expected_wpc = 4 * words / per_packet
    assert stats.words_per_cycle == pytest.approx(expected_wpc, rel=0.03)


@given(seed=st.integers(0, 200), n=st.sampled_from([4, 9, 16]))
@settings(max_examples=15, deadline=None)
def test_clos_conserves_packets(seed, n):
    """Clos composition: every delivered packet's words are intact and
    per-port counters sum to the totals, for any square size."""
    from repro.parallel.space_shard import SpaceSpec, run_space_serial
    from repro.traffic.build import shard_source

    source = shard_source(spec_from_legacy("uniform", 128), seed=seed)
    stats = run_space_serial(SpaceSpec(
        k=int(round(n ** 0.5)),
        partitions=1,
        source=SpaceSpec.pack_source(source),
        quanta=150,
        warmup_quanta=15,
    ))
    assert stats.delivered_words == stats.delivered_packets * 32
    assert sum(stats.per_port_packets) == stats.delivered_packets
    assert sum(stats.per_port_words) == stats.delivered_words
