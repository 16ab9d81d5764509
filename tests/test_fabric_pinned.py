"""The quantum-level fabric engine against fixed numbers, not against itself.

Every case drives one :class:`~repro.core.fabricsim.FabricSimulator`
for 600 measured quanta after 50 warm-up quanta, at seed 1, with the
source :func:`~repro.traffic.build.fabric_source` builds.  The cases
cover saturated fixed-size uniform traffic (at power-of-two and other
port counts, with and without self-exclusion), hotspot traffic and the
other presets, all drawn from the counter streams.  They also cover
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

#: Traffic per name in :data:`PINNED`: a flat-kwargs spec or a preset name.
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
#: ``Grant.expansion`` as a property; the saturated uniform and
#: ``p_hot = 0.7`` hotspot cases re-pinned once when they moved from
#: ``np.random.Generator`` draws to the counter streams.
PINNED = {
    "n4-uniform1024": (
        183366, 1660, 424960,
        [420, 413, 411, 416],
        [107520, 105728, 105216, 106496],
        (600, 0, 740),
        [0, 0, 198, 344, 58],
        (198645, 650),
        None,
    ),
    "n8-uniform1024": (
        185019, 2455, 628480,
        [299, 296, 318, 327, 295, 315, 302, 303],
        [76544, 75776, 81408, 83712, 75520, 80640, 77312, 77568],
        (600, 0, 2345),
        [0, 0, 5, 143, 276, 147, 27, 1, 1],
        (200432, 650),
        None,
    ),
    "n16-uniform1024": (
        187992, 2808, 718848,
        [185, 188, 163, 181, 156, 184, 176, 173, 183, 188, 192, 182, 171, 154,
         175, 157],
        [47360, 48128, 41728, 46336, 39936, 47104, 45056, 44288, 46848, 48128,
         49152, 46592, 43776, 39424, 44800, 40192],
        (600, 0, 6792),
        [0, 0, 2, 79, 193, 198, 94, 31, 3, 0, 0, 0, 0, 0, 0, 0, 0],
        (203674, 650),
        None,
    ),
    "n4-uniform1024_self": (
        183232, 1593, 407808,
        [401, 394, 383, 415],
        [102656, 100864, 98048, 106240],
        (600, 0, 807),
        [0, 22, 211, 319, 48],
        (198503, 650),
        None,
    ),
    "n8-uniform1024_self": (
        184830, 2643, 676608,
        [327, 318, 347, 327, 335, 323, 342, 324],
        [83712, 81408, 88832, 83712, 85760, 82688, 87552, 82944],
        (600, 0, 2157),
        [0, 0, 5, 83, 248, 202, 54, 6, 2],
        (200229, 650),
        None,
    ),
    "n16-uniform1024_self": (
        187927, 3020, 773120,
        [174, 191, 184, 185, 192, 187, 197, 201, 200, 176, 164, 194, 193, 195,
         196, 191],
        [44544, 48896, 47104, 47360, 49152, 47872, 50432, 51456, 51200, 45056,
         41984, 49664, 49408, 49920, 50176, 48896],
        (600, 0, 6580),
        [0, 0, 1, 60, 155, 173, 141, 54, 15, 1, 0, 0, 0, 0, 0, 0, 0],
        (203558, 650),
        None,
    ),
    "n12-uniform256": (
        71338, 2720, 174080,
        [229, 227, 219, 228, 235, 225, 224, 213, 224, 237, 243, 216],
        [14656, 14528, 14016, 14592, 15040, 14400, 14336, 13632, 14336, 15168,
         15552, 13824],
        (600, 0, 4480),
        [0, 0, 3, 98, 219, 160, 96, 24, 0, 0, 0, 0, 0],
        (77286, 650),
        None,
    ),
    "n8-hotspot07": (
        107004, 811, 103808,
        [100, 98, 117, 104, 98, 99, 98, 97],
        [12800, 12544, 14976, 13312, 12544, 12672, 12544, 12416],
        (600, 0, 3989),
        [0, 400, 189, 11, 0, 0, 0, 0, 0],
        (115920, 650),
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
        183365, 1646, 421376,
        [490, 419, 362, 375],
        [125440, 107264, 92672, 96000],
        (600, 0, 754),
        [0, 0, 211, 332, 57],
        (198646, 371),
        (650, 3070661545),
    ),
    "n4-uniform1024-faults": (
        181959, 1212, 310272,
        [447, 365, 305, 95],
        [114432, 93440, 78080, 24320],
        (600, 5, 685),
        [0, 135, 315, 132, 13],
        (197238, 645),
        (4, 0, 0, {"corrupt": 1, "dead_port": 1}, 346624, 345856,
         [("corrupt", 20171, 20171), ("overload", 30259, 34227),
          ("token_loss", 45227, 45467), ("port_down", 60138, 60138)]),
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
