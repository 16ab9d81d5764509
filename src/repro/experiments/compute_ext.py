"""Section 8.3: computation inside the switch fabric.

Header bits select a payload transform the Crossbar Processors apply as
the words stream by; routing through the tile ALU instead of the switch
crossbar costs the transform's cycles-per-word.  The experiment measures
router throughput with each service enabled (the price of encryption /
checksumming in-fabric), and verifies functionally that an encrypt at
one port and decrypt at another round-trips the payload.
"""

from __future__ import annotations

import numpy as np

from repro.core.compute import ByteSwap, Identity, RunningChecksum, XorCipher
from repro.core.fabricsim import FabricSimulator, saturated_permutation
from repro.experiments.common import ExperimentResult
from repro.config import CostModel


def _rate_with_transform(cycles_per_word: int, words: int, quanta: int) -> float:
    """Fabric throughput when the body streams at 1/cpw words per cycle."""

    sim = FabricSimulator()
    # Scale words by the transform cost: the body phase lengthens to
    # words * cycles_per_word (the ALU is the streaming bottleneck).
    source = saturated_permutation(words * cycles_per_word, shift=2)
    stats = sim.run(source, quanta=quanta, warmup_quanta=100)
    # Goodput counts original words, not stretched cycles.
    return stats.gbps / cycles_per_word


def run(size_bytes: int = 1024, quanta: int = 2000) -> ExperimentResult:
    result = ExperimentResult(
        name="ext_compute",
        description=f"In-fabric payload computation, {size_bytes}B packets",
    )
    words = CostModel.default().bytes_to_words(size_bytes)
    transforms = [
        ("plain_switch", Identity()),
        ("byteswap", ByteSwap()),
        ("xor_cipher", XorCipher(seed=0xC0FFEE)),
        ("running_checksum", RunningChecksum()),
    ]
    base = None
    for label, tf in transforms:
        gbps = _rate_with_transform(tf.cycles_per_word, words, quanta)
        if base is None:
            base = gbps
        result.add(f"{label}_gbps", gbps)
        result.add(f"{label}_relative", gbps / base if base else 0.0, 1.0 / tf.cycles_per_word)

    # Functional round trip: encrypt in the fabric, decrypt at the peer.
    rng = np.random.default_rng(0)
    payload = [int(x) for x in rng.integers(0, 1 << 32, size=256, dtype=np.uint64)]
    cipher = XorCipher(seed=0x5EED)
    roundtrip = cipher.apply(cipher.apply(payload))
    result.add("cipher_roundtrip_ok", roundtrip == payload, True)
    checks = RunningChecksum()
    checks.apply(payload)
    result.add("checksum_nonzero", checks.last_checksum != 0, True)
    result.notes = (
        "a one-instruction-per-word transform is free relative to the "
        "switch path; two instructions per word halve the streaming rate "
        "-- the thesis's motivation for putting compute where the data "
        "already flows."
    )
    return result
