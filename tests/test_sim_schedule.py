"""The kernel's event order against a reference scheduler.

The kernel keeps one list of events per pending cycle and takes the
next cycle from a heap of those cycles; a cycle's list is created, and
its time pushed, by whichever schedule reaches it first.  None of that
may show: events run in (time, schedule order), which is what a plain
heap of ``(time, seq)`` gives.  The delays below run from same-cycle
(0) through the per-word and per-hop costs (1-3) and control costs (17)
to long sleeps (1023-3000) and the word-level egress's idle sleep
(``1 << 20``).  The burst commands append to the store through their
own inlined paths; running them against their word loops at the same
delays catches a path that appends without pushing its cycle and so
strands its events.
"""

import hashlib
from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    BUSY,
    Get,
    GetBurst,
    Put,
    PutBurst,
    RouteBurst,
    Simulator,
    Timeout,
    Trace,
)

DELAYS = (0, 1, 2, 3, 17, 1023, 1024, 1025, 3000, 1 << 20)

programs = st.lists(
    st.lists(st.sampled_from(DELAYS), max_size=8), min_size=2, max_size=5
)


def reference_log(program):
    """``(time, process, step)`` per resume: a heap ordered by (time,
    schedule sequence); a zero delay continues in place."""
    heap = [(0, pid, pid, 0) for pid in range(len(program))]
    seq = len(program)
    log = []
    while heap:
        t, _, pid, step = heappop(heap)
        delays = program[pid]
        while True:
            log.append((t, pid, step))
            if step == len(delays):
                break
            step += 1
            if delays[step - 1]:
                seq += 1
                heappush(heap, (t + delays[step - 1], seq, pid, step))
                break
    return log


def kernel_sim(program):
    """A simulator loaded with ``program``, and the log its processes write."""
    sim = Simulator()
    log = []

    def proc(pid, delays):
        log.append((sim.now, pid, 0))
        for step, delay in enumerate(delays, 1):
            yield Timeout(delay, BUSY)
            log.append((sim.now, pid, step))

    for pid, delays in enumerate(program):
        sim.add_process(proc(pid, delays), name=f"p{pid}")
    return sim, log


@given(program=programs)
@settings(max_examples=200, deadline=None)
def test_resume_order_matches_reference(program):
    sim, log = kernel_sim(program)
    sim.run()
    assert log == reference_log(program)
    assert sim.now == max(t for t, _, _ in log)


@given(program=programs, data=st.data())
@settings(max_examples=200, deadline=None)
def test_run_until_inside_an_idle_gap_then_resume(program, data):
    """Stopping inside an idle gap and running on repeats one whole run."""
    whole, whole_log = kernel_sim(program)
    whole.run()
    times = sorted({t for t, _, _ in whole_log})
    gaps = [(a + 1, b - 1) for a, b in zip(times, times[1:]) if b - a > 1]
    if not gaps:
        return
    lo, hi = data.draw(st.sampled_from(gaps))
    until = data.draw(st.integers(lo, hi))
    split, split_log = kernel_sim(program)
    assert split.run(until=until) == until
    split.run()
    assert split_log == whole_log
    assert split.events_processed == whole.events_processed
    assert split.now == whole.now


# ---------------------------------------------------------------------------
# Bursts against their word loops, at the same delays.
# ---------------------------------------------------------------------------
def _fingerprint(trace: Trace) -> str:
    h = hashlib.sha256()
    for key in trace.keys():
        for iv in trace.intervals(key):
            h.update(f"{iv.key}|{iv.state}|{iv.start}|{iv.end};".encode())
    return h.hexdigest()


def run_pipeline(words, gap, lat_a, lat_b, chunk, cost, fanout, bursts):
    """producer -> a -> relay -> b (and c) -> consumer(s).

    ``bursts`` picks, per stage (producer, relay, consumer), the burst
    command or the word loop it stands for.  Returns what each consumer
    got, when each process finished, and the trace's fingerprint.
    """
    trace = Trace()
    sim = Simulator(trace=trace)
    a = sim.channel("a", capacity=2, latency=lat_a)
    outs = [sim.channel("b", capacity=1, latency=lat_b)]
    if fanout:
        outs.append(sim.channel("c", capacity=2, latency=lat_b))
    n = len(words)
    done = {}
    got = {ch.name: [] for ch in outs}

    def producer():
        if bursts[0]:
            yield PutBurst(a, words, gap=gap, state=BUSY)
        else:
            for w in words:
                yield Put(a, w)
                yield Timeout(gap, BUSY)
        done["producer"] = sim.now

    def relay():
        if bursts[1]:
            yield RouteBurst([(a, ch) for ch in outs], count=n)
        else:
            for _ in range(n):
                w = yield Get(a)
                for ch in outs:
                    yield Put(ch, w)
        done["relay"] = sim.now

    def consumer(ch):
        left = n
        while left:
            k = min(chunk, left)
            if bursts[2]:
                vals = yield GetBurst(ch, k)
            else:
                vals = []
                for _ in range(k):
                    vals.append((yield Get(ch)))
            got[ch.name].append((sim.now, vals))
            left -= k
            yield Timeout(cost, BUSY)
        done[ch.name] = sim.now

    sim.add_process(producer(), name="producer", trace_key="producer")
    sim.add_process(relay(), name="relay", trace_key="relay")
    for ch in outs:
        sim.add_process(consumer(ch), name=ch.name, trace_key=ch.name)
    sim.run()
    return got, done, sim.now, _fingerprint(trace)


@given(
    words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    gap=st.sampled_from(DELAYS),
    lat_a=st.sampled_from(DELAYS),
    lat_b=st.sampled_from(DELAYS),
    chunk=st.integers(1, 3),
    cost=st.sampled_from(DELAYS),
    fanout=st.booleans(),
    bursts=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
@settings(max_examples=300, deadline=None)
def test_bursts_match_word_loops_at_every_delay(
    words, gap, lat_a, lat_b, chunk, cost, fanout, bursts
):
    args = (words, gap, lat_a, lat_b, chunk, cost, fanout)
    reference = run_pipeline(*args, bursts=(False, False, False))
    assert run_pipeline(*args, bursts=bursts) == reference
    for ch_got in reference[0].values():
        assert [w for _, vals in ch_got for w in vals] == words
