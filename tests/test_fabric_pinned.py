"""The quantum-level fabric engine against fixed numbers, not against itself.

Every case drives one :class:`~repro.core.fabricsim.FabricSimulator`
for 600 measured quanta after 50 warm-up quanta, at seed 1, with the
source :func:`~repro.traffic.build.fabric_source` builds.  The cases
cover both source families: the legacy uniform / hotspot draws from a
PCG64 stream (at power-of-two and other port counts, with and without
self-exclusion) and the counter-based presets.  They also cover
fragmented permutation traffic with and without steady-state
fast-forward, a weighted token under ``keep_history``, a fault plan
that corrupts, kills a port, loses the token and overloads an output,
and a run under the telemetry recorder.  Any change that moves one of
these numbers changed the model; only a deliberate change to the model
may re-pin them.
"""

from __future__ import annotations

import zlib

import pytest

from repro.config import SimConfig
from repro.core.allocator import Allocator
from repro.core.fabricsim import FabricSimulator
from repro.core.ring import RingGeometry
from repro.core.token import WeightedToken
from repro.faults import FaultEvent, FaultPlan
from repro.telemetry import runtime
from repro.traffic.build import fabric_source
from repro.traffic.spec import spec_from_legacy

QUANTA = 600
WARMUP = 50

#: Traffic per name in :data:`PINNED`: a legacy spec or a preset name.
PIN_TRAFFIC = {
    "uniform1024": spec_from_legacy("uniform", 1024),
    "uniform1024_self": spec_from_legacy("uniform", 1024, exclude_self=False),
    "uniform256": spec_from_legacy("uniform", 256),
    "hotspot07": spec_from_legacy("hotspot", 512, hot_port=1, p_hot=0.7),
    "hotspot10": spec_from_legacy("hotspot", 512, p_hot=1.0),
    "permutation4096": spec_from_legacy("permutation", 4096, shift=1),
    "imix": "imix",
    "bursty": "bursty",
    "imix_onoff": "imix_onoff",
}

#: A plan exercising every fault kind the fabric loop realizes with
#: its own machinery, all inside the measured window.
FAULT_PLAN = FaultPlan(events=(
    FaultEvent(cycle=20_000, kind="corrupt", target="input:2", param=7),
    FaultEvent(cycle=30_000, kind="overload", target="port:0",
               duration=4_000),
    FaultEvent(cycle=45_000, kind="token_loss"),
    FaultEvent(cycle=60_000, kind="port_down", target="port:3"),
))

#: case -> (cycles, delivered_packets, delivered_words, per_port_packets,
#: per_port_words, (quanta, idle_quanta, blocked_events),
#: grant_histogram, (final clock, token rotations), extra).
#: ``n<ports>-<traffic>[-<variant>]``; ``extra`` is the fast-forwarded
#: quanta (``ff``), the history's length and CRC (``history``), the
#: resilience counters (``faults``) or the recorder's counters
#: (``telemetry``), else None.  Computed by the stepper that called
#: ``_refill`` for every port each quantum and read hop counts through
#: ``Grant.expansion`` as a property, over legacy sources that drew
#: per call from an ``np.random.Generator``.
PINNED = {
    "n4-uniform1024": (
        183346, 1654, 423424,
        [406, 406, 401, 441],
        [103936, 103936, 102656, 112896],
        (600, 0, 746),
        [0, 0, 210, 326, 64],
        (198629, 650),
        None,
    ),
    "n8-uniform1024": (
        184948, 2474, 633344,
        [306, 306, 303, 321, 299, 315, 313, 311],
        [78336, 78336, 77568, 82176, 76544, 80640, 80128, 79616],
        (600, 0, 2326),
        [0, 0, 8, 130, 280, 148, 30, 4, 0],
        (200372, 650),
        None,
    ),
    "n16-uniform1024": (
        187940, 2851, 729856,
        [191, 178, 188, 167, 167, 176, 174, 169, 187, 187, 177, 180, 161, 183,
         178, 188],
        [48896, 45568, 48128, 42752, 42752, 45056, 44544, 43264, 47872, 47872,
         45312, 46080, 41216, 46848, 45568, 48128],
        (600, 0, 6749),
        [0, 0, 1, 65, 207, 191, 93, 34, 7, 1, 1, 0, 0, 0, 0, 0, 0],
        (203586, 650),
        None,
    ),
    "n4-uniform1024_self": (
        183262, 1557, 398592,
        [403, 392, 371, 391],
        [103168, 100352, 94976, 100096],
        (600, 0, 843),
        [0, 15, 262, 274, 49],
        (198531, 650),
        None,
    ),
    "n8-uniform1024_self": (
        184897, 2574, 658944,
        [323, 320, 327, 322, 334, 326, 314, 308],
        [82688, 81920, 83712, 82432, 85504, 83456, 80384, 78848],
        (600, 0, 2226),
        [0, 0, 10, 93, 260, 188, 48, 1, 0],
        (200302, 650),
        None,
    ),
    "n16-uniform1024_self": (
        187946, 2973, 761088,
        [168, 192, 180, 194, 181, 194, 206, 169, 195, 180, 204, 172, 177, 198,
         170, 193],
        [43008, 49152, 46080, 49664, 46336, 49664, 52736, 43264, 49920, 46080,
         52224, 44032, 45312, 50688, 43520, 49408],
        (600, 0, 6627),
        [0, 0, 2, 57, 166, 184, 138, 38, 15, 0, 0, 0, 0, 0, 0, 0, 0],
        (203583, 650),
        None,
    ),
    "n12-uniform256": (
        71322, 2708, 173312,
        [238, 225, 214, 245, 223, 225, 211, 231, 212, 221, 241, 222],
        [15232, 14400, 13696, 15680, 14272, 14400, 13504, 14784, 13568, 14144,
         15424, 14208],
        (600, 0, 4492),
        [0, 0, 5, 95, 210, 189, 80, 20, 1, 0, 0, 0, 0],
        (77273, 650),
        None,
    ),
    "n8-hotspot07": (
        107030, 821, 105088,
        [111, 98, 100, 85, 117, 103, 103, 104],
        [14208, 12544, 12800, 10880, 14976, 13184, 13184, 13312],
        (600, 0, 3979),
        [0, 395, 189, 16, 0, 0, 0, 0, 0],
        (115948, 650),
        None,
    ),
    "n4-hotspot10": (
        106200, 600, 76800,
        [150, 150, 150, 150],
        [19200, 19200, 19200, 19200],
        (600, 0, 1800),
        [0, 600, 0, 0, 0],
        (115049, 650),
        None,
    ),
    "n4-permutation4096": (
        183000, 600, 614400,
        [150, 150, 150, 150],
        [153600, 153600, 153600, 153600],
        (600, 0, 0),
        [0, 0, 0, 0, 600],
        (198250, 650),
        None,
    ),
    "n4-permutation4096-ff": (
        183000, 600, 614400,
        [150, 150, 150, 150],
        [153600, 153600, 153600, 153600],
        (600, 0, 0),
        [0, 0, 0, 0, 600],
        (198250, 650),
        592,
    ),
    "n4-imix": (
        110128, 1660, 125728,
        [420, 413, 411, 416],
        [30864, 32544, 31024, 31296],
        (600, 0, 740),
        [0, 0, 198, 344, 58],
        (119384, 650),
        None,
    ),
    "n8-bursty": (
        184919, 2168, 555008,
        [284, 300, 270, 308, 273, 248, 266, 219],
        [72704, 76800, 69120, 78848, 69888, 63488, 68096, 56064],
        (600, 0, 2632),
        [0, 0, 71, 176, 274, 72, 7, 0, 0],
        (200312, 650),
        None,
    ),
    "n4-imix_onoff": (
        96806, 1184, 91568,
        [248, 330, 298, 308],
        [18592, 26464, 22320, 24192],
        (600, 9, 336),
        [0, 155, 288, 139, 9],
        (105181, 650),
        None,
    ),
    "n4-uniform1024-history": (
        183348, 1625, 416000,
        [488, 435, 355, 347],
        [124928, 111360, 90880, 88832],
        (600, 0, 775),
        [0, 0, 227, 321, 52],
        (198629, 371),
        (650, 39904915),
    ),
    "n4-uniform1024-faults": (
        181922, 1166, 298496,
        [436, 349, 291, 90],
        [111616, 89344, 74496, 23040],
        (600, 5, 730),
        [0, 158, 312, 115, 10],
        (197205, 645),
        (4, 0, 0, {"corrupt": 1, "dead_port": 1}, 334592, 333824,
         [("corrupt", 20171, 20171), ("overload", 30255, 34227),
          ("token_loss", 45228, 45468), ("port_down", 60137, 60137)]),
    ),
    "n8-imix-telemetry": (
        128417, 2455, 192992,
        [299, 296, 318, 327, 295, 315, 302, 303],
        [22784, 23024, 23408, 25744, 23456, 25376, 27488, 21712],
        (600, 0, 2345),
        [0, 0, 5, 143, 276, 147, 27, 1, 1],
        (138735, 650),
        (650, 650, 650, 2667, 0),
    ),
}


def _source(traffic: str, ports: int):
    config = SimConfig(fidelity="fabric", ports=ports, seed=1)
    return fabric_source(PIN_TRAFFIC[traffic], config)


def _simulator(ports: int, variant: str) -> FabricSimulator:
    ring = RingGeometry(ports)
    token = WeightedToken([4, 1, 1, 1]) if variant == "history" else None
    return FabricSimulator(
        ring=ring,
        allocator=Allocator(ring),
        token=token,
        keep_history=variant == "history",
        fast_forward=variant == "ff",
    )


def _extra(sim: FabricSimulator, variant: str, tel):
    if variant == "ff":
        return sim.ff_quanta
    if variant == "history":
        digest = repr([
            (requests, sorted((g.src, g.dst, g.expansion)
                              for g in alloc.grants.values()),
             sorted(alloc.blocked))
            for requests, alloc in sim.history
        ])
        return len(sim.history), zlib.crc32(digest.encode())
    if variant == "faults":
        r = sim.faults.metrics.to_dict()
        return (r["faults_injected"], r["faults_missed"], r["unrecovered"],
                r["drops"], r["offered_words"], r["delivered_words"],
                [(x["kind"], x["injected_at"], x["recovered_at"])
                 for x in r["recoveries"]])
    if variant == "telemetry":
        reg = tel.registry
        return (reg.counter("fabric.xbar_configs"),
                reg.counter("fabric.tokens_passed"),
                tel.events.emitted, tel.journeys.completed,
                tel.journeys.dropped)
    return None


def _pinned_counters(case):
    ports, traffic, *variant = case.split("-")
    variant = variant[0] if variant else ""
    ports = int(ports[1:])
    sim = _simulator(ports, variant)
    if variant == "faults":
        sim.install_faults(FAULT_PLAN)
    source = _source(traffic, ports)
    tel = None
    if variant == "telemetry":
        with runtime.capture() as tel:
            stats = sim.run(source, quanta=QUANTA, warmup_quanta=WARMUP)
    else:
        stats = sim.run(source, quanta=QUANTA, warmup_quanta=WARMUP)
    return (stats.cycles, stats.delivered_packets, stats.delivered_words,
            list(stats.per_port_packets), list(stats.per_port_words),
            (stats.quanta, stats.idle_quanta, stats.blocked_events),
            list(stats.grant_histogram),
            (sim.clock, sim.token.rotations),
            _extra(sim, variant, tel))


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_matches_pinned_values(self, case):
        assert _pinned_counters(case) == PINNED[case]
