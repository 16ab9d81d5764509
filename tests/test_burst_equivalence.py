"""Burst commands are cycle-for-cycle identical to their word loops.

``PutBurst``/``GetBurst``/``RouteBurst`` execute inside the kernel, but
they are defined as pure shorthand for the equivalent ``Put``/``Get``/
``Timeout`` loops: same completion cycles, same blocking intervals in
the trace, same results.  These tests pin that equivalence at the
kernel level (including under congestion, where the burst machines fall
back to the same park-and-wait paths word-at-a-time code uses) and
end-to-end on the word-level router with ``use_bursts`` on vs off.
"""

import hashlib

import pytest

from repro.config import SimConfig
from repro.router.wordlevel import WordLevelRouter
from repro.traffic.build import wordlevel_source
from repro.traffic.spec import spec_from_legacy
from repro.sim import (
    BUSY,
    Channel,
    Get,
    GetBurst,
    Put,
    PutBurst,
    RouteBurst,
    Simulator,
    Timeout,
    Trace,
)


def trace_fingerprint(trace: Trace) -> str:
    h = hashlib.sha256()
    for key in trace.keys():
        for iv in trace.intervals(key):
            h.update(f"{iv.key}|{iv.state}|{iv.start}|{iv.end};".encode())
    return h.hexdigest()


def run_traced(build, until=None):
    """Run the processes ``build`` yields and return (sim, trace)."""
    trace = Trace()
    sim = Simulator(trace=trace)
    for gen, key in build(sim):
        sim.add_process(gen, name=key, trace_key=key)
    sim.run(until=until, raise_on_deadlock=False)
    return sim, trace


# ---------------------------------------------------------------------------
# Kernel-level equivalence.
# ---------------------------------------------------------------------------
class TestPutBurst:
    @staticmethod
    def _producer_words(ch, words):
        for w in words:
            yield Put(ch, w)
            yield Timeout(1, BUSY)

    @staticmethod
    def _producer_burst(ch, words):
        yield PutBurst(ch, words, gap=1, state=BUSY)

    @pytest.mark.parametrize("consumer_cost", [0, 1, 3, 7])
    def test_matches_word_loop_under_backpressure(self, consumer_cost):
        """A slow consumer forces TX blocking; bursts must block the
        same cycles the word loop does."""
        words = list(range(40))
        results = []
        for producer in (self._producer_words, self._producer_burst):

            def build(sim, producer=producer):
                ch = sim.channel("ch", capacity=2, latency=1)
                got = []

                def consumer():
                    for _ in words:
                        got.append((yield Get(ch)))
                        if consumer_cost:
                            yield Timeout(consumer_cost, BUSY)

                return [
                    (producer(ch, words), "prod"),
                    (consumer(), "cons"),
                ]

            sim, trace = run_traced(build)
            results.append((sim.now, trace_fingerprint(trace)))
        assert results[0] == results[1]

    def test_gap_zero_back_to_back(self):
        words = [1, 2, 3, 4]
        ends = []
        for make in (
            lambda ch: iter([Put(ch, w) for w in words]),
            lambda ch: iter([PutBurst(ch, words, gap=0)]),
        ):

            def build(sim, make=make):
                ch = sim.channel("ch", capacity=10, latency=0)

                def producer():
                    for cmd in make(ch):
                        yield cmd

                def consumer():
                    for _ in words:
                        yield Get(ch)

                return [(producer(), "prod"), (consumer(), "cons")]

            sim, _ = run_traced(build)
            ends.append(sim.now)
        assert ends[0] == ends[1]

    def test_empty_burst_is_noop(self):
        def proc(ch):
            yield PutBurst(ch, [], gap=1)
            yield Timeout(3)

        sim = Simulator()
        sim.add_process(proc(Channel("ch")))
        assert sim.run() == 3


class TestGetBurst:
    @pytest.mark.parametrize("producer_gap", [1, 2, 5])
    def test_matches_word_loop(self, producer_gap):
        """A trickling producer forces per-word RX blocking."""
        n = 30
        results = []
        for burst in (False, True):

            def build(sim, burst=burst):
                ch = sim.channel("ch", capacity=2, latency=1)
                got = []

                def producer():
                    for w in range(n):
                        yield Put(ch, w)
                        yield Timeout(producer_gap, BUSY)

                def consumer():
                    if burst:
                        vals = yield GetBurst(ch, n)
                        got.extend(vals)
                    else:
                        for _ in range(n):
                            got.append((yield Get(ch)))
                    assert got == list(range(n))

                return [(producer(), "prod"), (consumer(), "cons")]

            sim, trace = run_traced(build)
            results.append((sim.now, trace_fingerprint(trace)))
        assert results[0] == results[1]

    def test_zero_count_returns_empty_list(self):
        out = {}

        def proc(ch):
            out["vals"] = yield GetBurst(ch, 0)

        sim = Simulator()
        sim.add_process(proc(Channel("ch")))
        sim.run()
        assert out["vals"] == []


class TestRouteBurst:
    def test_single_move_relay_matches_word_loop(self):
        """Relay under backpressure: a full downstream channel parks the
        machine in the putter queue exactly like a blocked Put."""
        n = 25
        results = []
        for burst in (False, True):

            def build(sim, burst=burst):
                a = sim.channel("a", capacity=2, latency=1)
                b = sim.channel("b", capacity=1, latency=1)

                def producer():
                    for w in range(n):
                        yield Put(a, w)
                        yield Timeout(1, BUSY)

                def relay():
                    if burst:
                        yield RouteBurst(((a, b),), count=n)
                    else:
                        for _ in range(n):
                            w = yield Get(a)
                            yield Put(b, w)

                def consumer():
                    got = []
                    for _ in range(n):
                        got.append((yield Get(b)))
                        yield Timeout(3, BUSY)  # slow drain: congests b
                    assert got == list(range(n))

                return [
                    (producer(), "prod"),
                    (relay(), "relay"),
                    (consumer(), "cons"),
                ]

            sim, trace = run_traced(build)
            results.append((sim.now, trace_fingerprint(trace)))
        assert results[0] == results[1]

    def test_fanout_matches_word_loop(self):
        """One read, two writes per cycle (the header-exchange shape)."""
        n = 20
        results = []
        for burst in (False, True):

            def build(sim, burst=burst):
                src = sim.channel("src", capacity=2, latency=1)
                d1 = sim.channel("d1", capacity=1, latency=1)
                d2 = sim.channel("d2", capacity=1, latency=1)

                def producer():
                    for w in range(n):
                        yield Put(src, w)
                        yield Timeout(1, BUSY)

                def switch():
                    if burst:
                        yield RouteBurst(((src, d1), (src, d2)), count=n)
                    else:
                        for _ in range(n):
                            w = yield Get(src)
                            yield Put(d1, w)
                            yield Put(d2, w)

                def sink(ch, cost):
                    def gen():
                        got = []
                        for _ in range(n):
                            got.append((yield Get(ch)))
                            if cost:
                                yield Timeout(cost, BUSY)
                        assert got == list(range(n))

                    return gen()

                return [
                    (producer(), "prod"),
                    (switch(), "switch"),
                    (sink(d1, 0), "sink1"),
                    (sink(d2, 2), "sink2"),  # unequal drain: d2 congests
                ]

            sim, trace = run_traced(build)
            results.append((sim.now, trace_fingerprint(trace)))
        assert results[0] == results[1]

    def test_validates_arguments(self):
        ch = Channel("x")
        with pytest.raises(ValueError):
            RouteBurst(((ch, ch),), count=0)
        with pytest.raises(ValueError):
            RouteBurst((), count=1)


# ---------------------------------------------------------------------------
# End-to-end: the word-level router with bursts on vs off.
# ---------------------------------------------------------------------------
def _run_wordlevel(use_bursts, pattern, packet_bytes, seed=None, cycles=6000):
    trace = Trace()
    source = wordlevel_source(
        spec_from_legacy(pattern, packet_bytes), SimConfig(seed=seed or 0)
    )
    router = WordLevelRouter(
        source, trace=trace, verify_payloads=True, use_bursts=use_bursts
    )
    router.chip.run(until=cycles)
    assert router.payload_errors == 0
    return (
        router.chip.now,
        router.delivered_packets,
        router.delivered_words,
        router.per_port_packets,
        trace_fingerprint(trace),
    )


class TestWordLevelEquivalence:
    @pytest.mark.parametrize(
        "pattern,packet_bytes,seed",
        [
            ("permutation", 1024, None),
            ("permutation", 256, None),
            ("uniform", 512, 3),
        ],
    )
    def test_bursts_identical_to_word_loops(self, pattern, packet_bytes, seed):
        on = _run_wordlevel(True, pattern, packet_bytes, seed)
        off = _run_wordlevel(False, pattern, packet_bytes, seed)
        assert on == off

    def test_pinned_golden_peak(self):
        """Bit-for-bit regression pin: burst-path results must match the
        pre-optimization kernel's numbers exactly."""
        source = wordlevel_source(spec_from_legacy("permutation", 1024),
                                  SimConfig())
        result = WordLevelRouter(source).run(30_000, warmup_cycles=5_000)
        assert (
            result.cycles,
            result.delivered_packets,
            result.delivered_words,
            result.gbps,
            result.mpps,
            result.per_port_packets,
        ) == (25_000, 304, 77_824, 24.90368, 3.04, [76, 76, 76, 76])
