"""The phase-level router engine against fixed numbers, not against itself.

Every case is one ``run_config`` at router fidelity over 600 delivered
packets at seed 1.  The cases cover saturated traffic (IMIX, the flat
uniform / hotspot / permutation workloads, trace replay) and the
line-card presets the engine paces in simulated time.  They
also cover two-fragment reassembly (1500 B) and the fault paths that
read packet headers at egress (``corrupt``) or stall an input
(``link_down``).  Any change that moves one of these numbers changed
the model; only a deliberate change to the model may re-pin them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.engines import WorkloadSpec, run_config
from repro.faults import FaultEvent, FaultPlan

IMIX_TRACE = str(
    Path(__file__).resolve().parent.parent / "examples/traces/imix_1k.csv"
)

#: WorkloadSpec kwargs per traffic name in :data:`PINNED`.
PIN_TRAFFIC = {
    "imix": {"traffic": "imix"},
    "uniform1024": {"pattern": "uniform", "packet_bytes": 1024},
    "hotspot": {"pattern": "hotspot"},
    "permutation64": {"pattern": "permutation", "packet_bytes": 64},
    "uniform1500": {"pattern": "uniform", "packet_bytes": 1500},
    "bernoulli": {"traffic": "bernoulli"},
    "imix_onoff": {"traffic": "imix_onoff"},
    "replay": {"traffic": IMIX_TRACE},
}

#: Fault plans per suffix in :data:`PINNED`, all inside the measured
#: window (the router engine warms up for 30,000 cycles).
PIN_FAULTS = {
    "corrupt": FaultPlan(events=(
        FaultEvent(cycle=36_000, kind="corrupt", target="input:2", param=7),
    )),
    "link_down": FaultPlan(events=(
        FaultEvent(cycle=35_000, kind="link_down", target="input:1",
                   duration=3_000),
    )),
}

#: The drop counters of a run that dropped nothing.
CLEAN = {"line": 0, "checksum": 0, "ttl": 0}

#: case -> (cycles, delivered_packets, delivered_words, per_port_packets,
#: latency (p50, p99, max) cycles, (quanta, idle_quanta, kernel_events),
#: drops by cause).  ``n<ports>-<traffic>[-<fault>]``.  Computed by the
#: packet factory that drew both address words of every packet with
#: ``Generator.integers`` and built every payload tuple eagerly; the
#: uniform and hotspot cases re-pinned once when their destinations
#: moved from a generator the factory shared to the counter streams.
PINNED = {
    "n4-imix": (
        80000, 735, 55344, [177, 183, 183, 192],
        (17379.0, 19952.219999999998, 20432.0), (437, 1, 10910),
        CLEAN,
    ),
    "n8-imix": (
        80000, 978, 75680, [118, 119, 124, 124, 118, 144, 132, 99],
        (26807.0, 32422.83, 33588.0), (376, 1, 14806),
        CLEAN,
    ),
    "n16-imix": (
        60000, 626, 49504,
        [41, 39, 28, 44, 32, 36, 38, 37, 38, 45, 29, 46, 45, 42, 47, 39],
        (38590.5, 51456.75, 52520.0), (265, 1, 14686),
        CLEAN,
    ),
    "n4-uniform1024": (
        100000, 639, 163584, [158, 156, 153, 172],
        (23829.0, 33143.24, 33870.0), (328, 1, 8514),
        CLEAN,
    ),
    "n8-uniform1024": (
        80000, 666, 170496, [87, 84, 80, 84, 87, 96, 81, 67],
        (30069.0, 44484.05, 45301.0), (260, 1, 10691),
        CLEAN,
    ),
    "n4-hotspot": (
        180000, 642, 164352, [492, 49, 56, 45],
        (57805.5, 67255.36000000002, 68601.0), (591, 1, 8283),
        CLEAN,
    ),
    "n8-hotspot": (
        180000, 670, 171520, [489, 31, 27, 23, 27, 20, 31, 22],
        (90890.5, 125257.62, 127705.0), (588, 1, 9581),
        CLEAN,
    ),
    "n4-permutation64": (
        40000, 608, 9728, [152, 152, 152, 152],
        (4306.0, 4306.0, 4306.0), (607, 1, 20822),
        CLEAN,
    ),
    "n4-uniform1500": (
        160000, 615, 230625, [148, 158, 145, 164],
        (27624.0, 34822.64, 35243.0), (572, 1, 7982),
        CLEAN,
    ),
    "n4-bernoulli": (
        100000, 638, 163328, [156, 156, 153, 173],
        (3824.0, 10803.08, 11309.0), (327, 1, 9715),
        CLEAN,
    ),
    "n4-imix_onoff": (
        80000, 708, 60560, [181, 182, 164, 181],
        (22739.0, 30313.39, 30882.0), (422, 1, 12924),
        {"line": 250, "checksum": 0, "ttl": 0},
    ),
    "n4-replay": (
        80000, 729, 51248, [156, 181, 207, 185],
        (17830.0, 23674.4, 23996.0), (455, 1, 10665),
        CLEAN,
    ),
    "n4-imix-corrupt": (
        80000, 734, 55328, [176, 183, 183, 192],
        (17374.0, 19952.889999999996, 20432.0), (437, 1, 10911),
        {**CLEAN, "corrupt": 1, "dead_port": 0},
    ),
    "n4-imix-link_down": (
        80000, 744, 55984, [174, 187, 184, 199],
        (16983.5, 21911.390000000007, 22467.0), (435, 1, 10996),
        {**CLEAN, "corrupt": 0, "dead_port": 0},
    ),
}


def _pinned_counters(case):
    ports, traffic, *fault = case.split("-")
    config = SimConfig(fidelity="router", ports=int(ports[1:]), seed=1)
    workload = WorkloadSpec(
        packets=600,
        fault_plan=PIN_FAULTS[fault[0]] if fault else None,
        **PIN_TRAFFIC[traffic],
    )
    r = run_config(config, workload)
    e = r.extra
    # Fault runs add the full taxonomy (corrupt, dead_port) to the three
    # counters every run reports.
    drops = {"line": e["line_drops"], "checksum": e["checksum_drops"],
             "ttl": e["ttl_drops"], **e.get("drops", {})}
    lat = r.latency
    return (r.cycles, r.delivered_packets, r.delivered_words,
            list(r.per_port_packets),
            (lat["p50_cycles"], lat["p99_cycles"], lat["max_cycles"]),
            (e["quanta"], e["idle_quanta"], e["kernel_events"]),
            drops)


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_matches_pinned_values(self, case):
        assert _pinned_counters(case) == PINNED[case]
