"""What the router's per-packet stage code may not change.

The stages reuse their Timeouts (one per stream, drain or quantum
length), record trace intervals inline, and hand a packet that fits one
crossbar quantum its fragment directly.  None of that may move a
simulated cycle: a traced run's every interval is pinned below, and the
one-quantum path of :func:`fragment_packet` is held to the general loop.
"""

import hashlib

import pytest

from repro.config import SimConfig
from repro.engines import WorkloadSpec
from repro.ip.packet import IPv4Packet
from repro.router import QuantumFragment, RawRouter, fragment_packet
from repro.sim import Trace
from repro.traffic.build import router_traffic

#: workload -> (sha256 of every (key, state, start, end) trace interval,
#: final cycle, delivered packets).  Taken before the stages reused
#: their Timeouts and inlined the trace record; ``uniform1500`` re-pinned
#: once when its destinations moved to the counter streams.
TRACE_PINNED = {
    "imix": (
        "0cdf8d6498767bffb020497c62030f5937485577a5a428ff6b4b7240daffba53",
        40_000,
        593,
    ),
    "uniform1500": (
        "95be9109758a2f5b4e0d1ab358a2dea0ddb400cde6ba457ae1793edfb53c73e7",
        100_000,
        464,
    ),
}

WORKLOADS = {
    "imix": WorkloadSpec(traffic="imix"),
    # 1500 B is 375 words: two fragments of a 256-word quantum.
    "uniform1500": WorkloadSpec(pattern="uniform", packet_bytes=1500),
}


@pytest.mark.parametrize("name", sorted(TRACE_PINNED))
def test_traced_run_pinned(name):
    config = SimConfig(ports=4, fidelity="router", seed=7)
    trace = Trace()
    router = RawRouter.from_config(config, trace=trace)
    traffic, factory, offered_load = router_traffic(
        WORKLOADS[name].effective_traffic(), config
    )
    assert offered_load is None  # saturated
    router.attach_saturated(traffic, factory)
    res = router.run(target_packets=400)
    h = hashlib.sha256()
    for iv in trace.all_intervals():
        h.update(f"{iv.key}|{iv.state}|{iv.start}|{iv.end};".encode())
    assert (h.hexdigest(), router.sim.now, res.packets) == TRACE_PINNED[name]


def _loop_fragments(packet, dest, max_quantum_words):
    """The general split, with no one-quantum shortcut."""
    total = packet.total_words
    count = (total + max_quantum_words - 1) // max_quantum_words
    out = []
    for i in range(count):
        w = min(total - i * max_quantum_words, max_quantum_words)
        out.append((dest, w, i, count, packet))
    return out


@pytest.mark.parametrize("quantum", [64, 256])
def test_fragments_equal_the_general_loop(quantum):
    for size in range(20, 9_001, 4):
        pkt = IPv4Packet.synthesize(0x0A000001, 0xC0000001, size)
        frags = fragment_packet(pkt, 2, quantum)
        got = [(f.dest, f.words, f.index, f.count, f.packet) for f in frags]
        assert got == _loop_fragments(pkt, 2, quantum), size
        assert sum(f.words for f in frags) == pkt.total_words
        assert [f.is_last for f in frags] == [False] * (len(frags) - 1) + [True]


def test_fragment_checks_its_fields():
    pkt = IPv4Packet.synthesize(1, 2, 64)
    with pytest.raises(ValueError, match="at least one word"):
        QuantumFragment(0, 0, 0, 1, pkt)
    for index, count in ((-1, 1), (1, 1), (2, 2), (0, 0)):
        with pytest.raises(ValueError, match="index out of range"):
            QuantumFragment(0, 16, index, count, pkt)
    frag = QuantumFragment(dest=3, words=16, index=0, count=1, packet=pkt)
    assert (frag.dest, frag.words, frag.index, frag.count) == (3, 16, 0, 1)
    assert frag.packet is pkt and frag.is_last
