"""The legacy fabric sources draw numpy's own sequence.

:func:`~repro.core.fabricsim.saturated_uniform` and
:func:`~repro.core.fabricsim.saturated_hotspot` own the generator their
seed builds; the uniform one draws its destinations in blocks of 1,024.
Every case here holds them to what per-call ``integers(0, n)`` /
``random()`` on ``np.random.default_rng(seed)`` return, the uniform
source over enough draws to cross at least two block boundaries.
``n`` = 3 * 2**30 rejects a quarter of its 32-bit draws, so Lemire's
redraw loop runs often, and ``n`` above 2**32 takes numpy's 64-bit
draw; hotspot at ``n = 1`` checks that ``integers(0, 1)`` reads
nothing, since a stray read would shift every later ``random()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fabricsim import saturated_hotspot, saturated_uniform

SEEDS = (0, 1, 2**31 - 1)
#: Rejects a quarter of the 32-bit draws Lemire's method scales.
REJECTING = 3 * 2**30
#: Port counts: small, non-powers of two, one that rejects often, and
#: one past 32 bits.
PORT_COUNTS = (2, 3, 5, 12, 16, 17, 100, REJECTING, 2**40 + 3)
#: The hot "port": not one ``integers`` can draw, so every polled
#: destination shows which branch drew it (at ``n = 1`` a real hot port
#: would equal every ``integers(0, 1)``).
HOT = -1


def numpy_uniform(seed, n, exclude_self, ports):
    rng = np.random.default_rng(seed)
    out = []
    for port in ports:
        while True:
            dest = int(rng.integers(0, n))
            if not exclude_self or dest != port:
                break
        out.append(dest)
    return out


def numpy_hotspot(seed, n, hot, p_hot, draws):
    rng = np.random.default_rng(seed)
    return [
        hot if rng.random() < p_hot else int(rng.integers(0, n))
        for _ in range(draws)
    ]


def polled(source, ports):
    return [source(port)[0] for port in ports]


class TestUniform:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", PORT_COUNTS)
    @pytest.mark.parametrize("exclude_self", (False, True))
    def test_matches_per_call_integers(self, seed, n, exclude_self):
        # 2,600 draws take three blocks.
        ports = [k % min(n, 16) for k in range(2600)]
        source = saturated_uniform(64, seed, n=n, exclude_self=exclude_self)
        assert polled(source, ports) == numpy_uniform(
            seed, n, exclude_self, ports
        )


class TestHotspot:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", (1, 2, 3, 8, 17, REJECTING))
    @pytest.mark.parametrize("p_hot", (0.0, 0.3, 0.7, 1.0))
    def test_matches_per_call_random_and_integers(self, seed, n, p_hot):
        source = saturated_hotspot(64, seed, hot=HOT, p_hot=p_hot, n=n)
        assert polled(source, [0] * 1200) == numpy_hotspot(
            seed, n, HOT, p_hot, 1200
        )


@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.one_of(st.integers(1, 64), st.integers(2**31, 2**40)),
    p_hot=st.floats(0.0, 1.0),
    exclude_self=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_any_seed_draws_numpys_sequence(seed, n, p_hot, exclude_self):
    exclude_self = exclude_self and n > 1
    ports = [k % min(n, 8) for k in range(2100)]
    uniform = saturated_uniform(1, seed, n=n, exclude_self=exclude_self)
    assert polled(uniform, ports) == numpy_uniform(
        seed, n, exclude_self, ports
    )
    hotspot = saturated_hotspot(1, seed, hot=HOT, p_hot=p_hot, n=n)
    assert polled(hotspot, [0] * 300) == numpy_hotspot(
        seed, n, HOT, p_hot, 300
    )


class TestGuards:
    @pytest.mark.parametrize("rng", (
        np.random.default_rng(0), np.random.PCG64(0),
    ), ids=("Generator", "BitGenerator"))
    def test_generator_rejected(self, rng):
        with pytest.raises(TypeError, match="int seed"):
            saturated_uniform(64, rng)
        with pytest.raises(TypeError, match="int seed"):
            saturated_hotspot(64, rng)
