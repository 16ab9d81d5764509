"""The fabric's counter-stream sources draw the per-call sequence.

:func:`~repro.traffic.build.fabric_source` turns a saturated fixed-size
uniform or hotspot spec into the model's own ``(dest, words)`` closure.
The uniform one takes each port's destinations a block of
:data:`~repro.traffic.model._BLOCK` at a time; every case here holds
both to what per-call :func:`~repro.traffic.rng.draw_int` /
``draw_float`` return on each port's pattern stream (stream ``port *
8``, one counter per port), the uniform source over enough polls that
every polled port crosses at least two block refills.  The polls
interleave ports, so a block stored under the wrong port or a value
dropped or repeated at a refill shifts the sequence.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.config import SimConfig
from repro.traffic.build import fabric_source
from repro.traffic.rng import draw_float, draw_int
from repro.traffic.spec import PatternSpec, TrafficSpec

SEEDS = (0, 1, 2**31 - 1)
#: Port counts: small, non-powers of two, and more ports than are polled.
PORT_COUNTS = (2, 3, 5, 12, 16, 17, 100)
BYTES = 1024


def source_for(pattern, n, seed):
    spec = TrafficSpec(pattern=pattern)
    return fabric_source(spec, SimConfig(ports=n, seed=seed))


def per_call_uniform(seed, n, exclude_self, ports):
    used = Counter()
    out = []
    for port in ports:
        k = used[port]
        used[port] += 1
        if not exclude_self:
            out.append(draw_int(seed, port * 8, k, n))
            continue
        d = draw_int(seed, port * 8, k, n - 1)
        out.append(d + 1 if d >= port else d)
    return out


def per_call_hotspot(seed, n, hot, p_hot, ports):
    """One draw when the packet goes hot, two when it spills."""
    used = Counter()
    out = []
    for port in ports:
        k = used[port]
        if draw_float(seed, port * 8, k) < p_hot:
            used[port] += 1
            out.append(hot)
        else:
            used[port] += 2
            out.append(draw_int(seed, port * 8, k + 1, n))
    return out


def polled(source, ports):
    drawn = [source(port) for port in ports]
    assert {words for _, words in drawn} == {BYTES // 4}
    return [dest for dest, _ in drawn]


class TestUniform:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", PORT_COUNTS)
    @pytest.mark.parametrize("exclude_self", (False, True))
    def test_matches_per_call_integers(self, seed, n, exclude_self):
        # 2,600 polls over at most 16 ports: 162 or more a port, three
        # blocks of 64.
        ports = [k % min(n, 16) for k in range(2600)]
        pattern = PatternSpec(kind="uniform", exclude_self=exclude_self)
        source = source_for(pattern, n, seed)
        assert polled(source, ports) == per_call_uniform(
            seed, n, exclude_self, ports
        )


class TestHotspot:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", (2, 3, 8, 17))
    @pytest.mark.parametrize("p_hot", (0.0, 0.3, 0.7, 1.0))
    def test_matches_per_call_random_and_integers(self, seed, n, p_hot):
        # A hot draw reads one value and a spill two, so a wrong branch
        # shifts every later draw of that port.
        ports = [k % n for k in range(1200)]
        pattern = PatternSpec(kind="hotspot", hot_port=n - 1, p_hot=p_hot)
        source = source_for(pattern, n, seed)
        assert polled(source, ports) == per_call_hotspot(
            seed, n, n - 1, p_hot, ports
        )


class TestGuards:
    @pytest.mark.parametrize("rng", (
        np.random.default_rng(0), np.random.PCG64(0),
    ), ids=("Generator", "BitGenerator"))
    def test_generator_rejected(self, rng):
        # The streams are a pure function of an int seed; a generator
        # has no such value.
        for kind in ("uniform", "hotspot"):
            with pytest.raises(TypeError, match=r"int\(\) argument"):
                source_for(PatternSpec(kind=kind), 4, rng)
