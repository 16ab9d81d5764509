"""Kernel semantics: channels, processes, tracing, deadlock detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    BUSY,
    Channel,
    DeadlockError,
    Get,
    MEM_BLOCK,
    Put,
    PutBurst,
    RX_BLOCK,
    Simulator,
    Timeout,
    Trace,
    TX_BLOCK,
)
from repro.sim.errors import SimulationError


def run_sim(*gens, until=None, trace=None, raise_on_deadlock=True):
    sim = Simulator(trace=trace)
    procs = [sim.add_process(g, name=f"p{i}") for i, g in enumerate(gens)]
    sim.run(until=until, raise_on_deadlock=raise_on_deadlock)
    return sim, procs


class TestTimeout:
    def test_advances_clock(self):
        def proc():
            yield Timeout(10)
            yield Timeout(5)

        sim, _ = run_sim(proc())
        assert sim.now == 15

    def test_zero_delay_is_free(self):
        def proc():
            for _ in range(100):
                yield Timeout(0)

        sim, _ = run_sim(proc())
        assert sim.now == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1)

    def test_non_integer_delay_rejected(self):
        with pytest.raises(TypeError, match="1.5"):
            Timeout(1.5)

    def test_numpy_integer_delay_runs(self):
        def proc():
            yield Timeout(np.int64(3))
            yield Timeout(np.int32(2))

        sim, _ = run_sim(proc())
        assert sim.now == 5

    def test_busy_state_recorded(self):
        trace = Trace()

        def proc():
            yield Timeout(7, BUSY)
            yield Timeout(3, MEM_BLOCK)

        sim = Simulator(trace=trace)
        sim.add_process(proc(), trace_key="k")
        sim.run()
        assert trace.time_in_state("k", BUSY) == 7
        assert trace.time_in_state("k", MEM_BLOCK) == 3


class TestChannelBasics:
    def test_put_get_same_cycle_zero_latency(self):
        sim = Simulator()
        ch = sim.channel("c")
        got = []

        def producer():
            yield Put(ch, 42)

        def consumer():
            v = yield Get(ch)
            got.append((v, sim.now))

        sim.add_process(producer())
        sim.add_process(consumer())
        sim.run()
        assert got == [(42, 0)]

    def test_latency_delays_visibility(self):
        sim = Simulator()
        ch = sim.channel("c", latency=5)
        got = []

        def producer():
            yield Put(ch, "x")

        def consumer():
            v = yield Get(ch)
            got.append((v, sim.now))

        sim.add_process(producer())
        sim.add_process(consumer())
        sim.run()
        assert got == [("x", 5)]

    def test_capacity_blocks_putter(self):
        sim = Simulator()
        ch = sim.channel("c", capacity=2)
        times = []

        def producer():
            for i in range(4):
                yield Put(ch, i)
                times.append(sim.now)

        def consumer():
            yield Timeout(100)
            for _ in range(4):
                yield Get(ch)

        sim.add_process(producer())
        sim.add_process(consumer())
        sim.run()
        # First two puts immediate; the rest wait for the consumer.
        assert times[0] == 0 and times[1] == 0
        assert times[2] >= 100 and times[3] >= 100

    def test_fifo_order(self):
        sim = Simulator()
        ch = sim.channel("c", capacity=3)
        got = []

        def producer():
            for i in range(10):
                yield Put(ch, i)

        def consumer():
            for _ in range(10):
                got.append((yield Get(ch)))

        sim.add_process(producer())
        sim.add_process(consumer())
        sim.run()
        assert got == list(range(10))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Channel(capacity=0)

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            Channel(latency=-1)

    def test_non_integer_latency_rejected(self):
        with pytest.raises(TypeError, match="1.5"):
            Channel(latency=1.5)
        assert Channel(latency=np.int64(2)).latency == 2

    def test_non_integer_putburst_gap_rejected(self):
        ch = Channel(capacity=4)
        with pytest.raises(TypeError, match="0.5"):
            PutBurst(ch, [1, 2], gap=0.5)
        assert PutBurst(ch, [1, 2], gap=np.int64(2)).gap == 2


class TestChainThroughput:
    def test_chain_throughput(self):
        """A forwarding chain over capacity-1/latency-1 links sustains
        exactly one word per cycle -- the Raw static-network contract."""
        sim = Simulator()
        n_words = 200
        a = sim.channel("a", capacity=1, latency=1)
        b = sim.channel("b", capacity=1, latency=1)
        c = sim.channel("c", capacity=1, latency=1)
        out = []

        def source():
            for i in range(n_words):
                yield Put(a, i)

        def hop(src, dst):
            while True:
                v = yield Get(src)
                yield Put(dst, v)

        def sink():
            for _ in range(n_words):
                out.append((yield Get(c)))

        sim.add_process(source())
        sim.add_process(hop(a, b))
        sim.add_process(hop(b, c))
        sim.add_process(sink())
        sim.run(raise_on_deadlock=False)
        assert out == list(range(n_words))
        # n words through 3 hops: n + pipeline depth cycles.
        assert sim.now <= n_words + 5


class TestBlockingTrace:
    def test_rx_block_recorded(self):
        trace = Trace()
        sim = Simulator(trace=trace)
        ch = sim.channel("c")

        def slow_producer():
            yield Timeout(20)
            yield Put(ch, 1)

        def consumer():
            yield Get(ch)

        sim.add_process(slow_producer())
        sim.add_process(consumer(), trace_key="rx")
        sim.run()
        assert trace.time_in_state("rx", RX_BLOCK) == 20

    def test_tx_block_recorded(self):
        trace = Trace()
        sim = Simulator(trace=trace)
        ch = sim.channel("c", capacity=1)

        def producer():
            yield Put(ch, 1)
            yield Put(ch, 2)  # blocks: capacity 1, consumer slow

        def consumer():
            yield Timeout(30)
            yield Get(ch)
            yield Get(ch)

        sim.add_process(producer(), trace_key="tx")
        sim.add_process(consumer())
        sim.run()
        assert trace.time_in_state("tx", TX_BLOCK) == 30


class TestDeadlock:
    def test_deadlock_detected(self):
        sim = Simulator()
        a = sim.channel("a")
        b = sim.channel("b")

        def p1():
            yield Get(a)
            yield Put(b, 1)

        def p2():
            yield Get(b)
            yield Put(a, 1)

        sim.add_process(p1())
        sim.add_process(p2())
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        assert len(exc.value.blocked) == 2

    def test_deadlock_suppressible(self):
        sim = Simulator()
        a = sim.channel("a")

        def waiter():
            yield Get(a)

        sim.add_process(waiter())
        sim.run(raise_on_deadlock=False)  # no exception

    def test_until_does_not_raise(self):
        sim = Simulator()
        a = sim.channel("a")

        def waiter():
            yield Get(a)

        sim.add_process(waiter())
        assert sim.run(until=100) <= 100


class TestNonBlockingOps:
    def test_try_get_empty(self):
        sim = Simulator()
        ch = sim.channel("c")
        results = []

        def prober():
            results.append(sim.try_get(ch))
            yield Timeout(1)

        sim.add_process(prober())
        sim.run()
        assert results == [(False, None)]

    def test_try_get_after_put(self):
        sim = Simulator()
        ch = sim.channel("c")
        results = []

        def producer():
            yield Put(ch, 7)

        def prober():
            yield Timeout(1)
            results.append(sim.try_get(ch))

        sim.add_process(producer())
        sim.add_process(prober())
        sim.run()
        assert results == [(True, 7)]

    def test_peek_does_not_consume(self):
        sim = Simulator()
        ch = sim.channel("c")
        results = []

        def producer():
            yield Put(ch, 9)

        def prober():
            yield Timeout(1)
            results.append(sim.peek(ch))
            results.append(sim.try_get(ch))

        sim.add_process(producer())
        sim.add_process(prober())
        sim.run()
        assert results == [(True, 9), (True, 9)]

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        ch = sim.channel("c", capacity=1)
        results = []

        def prober():
            results.append(sim.try_put(ch, 1))
            results.append(sim.try_put(ch, 2))
            yield Timeout(1)

        sim.add_process(prober())
        sim.run()
        assert results == [True, False]

    def test_try_put_wakes_getter(self):
        sim = Simulator()
        ch = sim.channel("c")
        got = []

        def getter():
            got.append((yield Get(ch)))

        def putter():
            yield Timeout(5)
            assert sim.try_put(ch, "v")

        sim.add_process(getter())
        sim.add_process(putter())
        sim.run()
        assert got == ["v"]


class TestProcessLifecycle:
    def test_result_captured(self):
        def proc():
            yield Timeout(1)
            return "done"

        sim = Simulator()
        p = sim.add_process(proc())
        sim.run()
        assert not p.alive
        assert p.result == "done"

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.add_process(lambda: None)

    def test_unknown_command_rejected(self):
        def proc():
            yield "not a command"

        sim = Simulator()
        sim.add_process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_resumable(self):
        def proc():
            for _ in range(10):
                yield Timeout(10)

        sim = Simulator()
        sim.add_process(proc())
        sim.run(until=35)
        assert sim.now == 35
        sim.run()
        assert sim.now == 100


@given(
    values=st.lists(st.integers(), min_size=1, max_size=50),
    capacity=st.integers(min_value=1, max_value=8),
    latency=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_channel_preserves_order_and_content(values, capacity, latency):
    """Property: any channel delivers exactly the put sequence, in order."""
    sim = Simulator()
    ch = sim.channel("c", capacity=capacity, latency=latency)
    got = []

    def producer():
        for v in values:
            yield Put(ch, v)

    def consumer():
        for _ in values:
            got.append((yield Get(ch)))

    sim.add_process(producer())
    sim.add_process(consumer())
    sim.run(raise_on_deadlock=False)
    assert got == values


@given(
    delays=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=20)
)
@settings(max_examples=50, deadline=None)
def test_clock_sums_timeouts(delays):
    def proc():
        for d in delays:
            yield Timeout(d)

    sim = Simulator()
    sim.add_process(proc())
    sim.run()
    assert sim.now == sum(delays)


class TestBlockedReport:
    """A bounded run that drains with stuck processes must be inspectable
    (with ``until`` set the kernel returns instead of raising, which can
    silently mask a real deadlock)."""

    def test_rx_blocked_process_is_reported(self):
        def stuck(ch):
            yield Get(ch)  # nothing is ever put

        sim = Simulator()
        ch = sim.channel("hdr_in", capacity=1)
        sim.add_process(stuck(ch), name="egress0")
        sim.run(until=100)
        assert sim.blocked_report() == [
            {"name": "egress0", "state": RX_BLOCK, "channel": "hdr_in", "since": 0}
        ]

    def test_tx_blocked_process_is_reported(self):
        def producer(ch):
            yield Timeout(5)
            yield Put(ch, 1)  # fills the only slot
            yield Put(ch, 2)  # blocks forever: no consumer

        sim = Simulator()
        ch = sim.channel("body", capacity=1)
        sim.add_process(producer(ch), name="ingress0")
        sim.run(until=100)
        (entry,) = sim.blocked_report()
        assert entry["name"] == "ingress0"
        assert entry["state"] == TX_BLOCK
        assert entry["channel"] == "body"
        assert entry["since"] == 5

    def test_unnamed_channel_reports_none(self):
        def stuck(ch):
            yield Get(ch)

        sim = Simulator()
        ch = sim.channel(capacity=1)
        sim.add_process(stuck(ch), name="p")
        sim.run(until=10)
        assert sim.blocked_report()[0]["channel"] is None

    def test_clean_drain_reports_nothing(self):
        def proc():
            yield Timeout(3)

        sim = Simulator()
        sim.add_process(proc())
        sim.run(until=100)
        assert sim.blocked_report() == []

    def test_cutoff_with_pending_events_reports_nothing(self):
        # Stopped by the horizon, not drained: nothing is stuck.
        def ticker():
            while True:
                yield Timeout(10)

        sim = Simulator()
        sim.add_process(ticker(), name="t")
        sim.run(until=35)
        assert sim.blocked_report() == []

    def test_report_resets_between_runs(self):
        def stuck(ch):
            yield Get(ch)

        def rescuer(ch):
            yield Timeout(1)
            yield Put(ch, 42)

        sim = Simulator()
        ch = sim.channel("c", capacity=1)
        sim.add_process(stuck(ch), name="s")
        sim.run(until=10)
        assert len(sim.blocked_report()) == 1
        sim.add_process(rescuer(ch), name="r")
        sim.run(until=20)
        assert sim.blocked_report() == []

    def test_unbounded_run_still_raises(self):
        def stuck(ch):
            yield Get(ch)

        sim = Simulator()
        ch = sim.channel("c", capacity=1)
        sim.add_process(stuck(ch), name="s")
        with pytest.raises(DeadlockError):
            sim.run()
        assert len(sim.blocked_report()) == 1


class TestRunUntilContract:
    """The documented ``run(until=...)`` contract (see the kernel's
    :meth:`Simulator.run` docstring): the clock stops at ``until`` only
    when events remain beyond it; a drained queue leaves the clock at
    the last executed event; the clock never moves backwards."""

    def test_drained_early_clock_stays_at_last_event(self):
        def proc():
            yield Timeout(5)

        sim = Simulator()
        sim.add_process(proc())
        assert sim.run(until=100) == 5
        assert sim.now == 5  # NOT advanced to 100: nothing happened after 5

    def test_cutoff_clock_stops_exactly_at_until(self):
        def proc():
            while True:
                yield Timeout(7)

        sim = Simulator()
        sim.add_process(proc())
        assert sim.run(until=10) == 10
        assert sim.now == 10

    def test_event_exactly_at_until_executes(self):
        seen = []

        def proc():
            yield Timeout(10)
            seen.append(True)
            yield Timeout(10)
            seen.append(True)

        sim = Simulator()
        sim.add_process(proc())
        sim.run(until=10)
        assert seen == [True]

    def test_until_at_or_before_now_is_noop(self):
        def proc():
            while True:
                yield Timeout(5)

        sim = Simulator()
        sim.add_process(proc())
        sim.run(until=20)
        assert sim.now == 20
        assert sim.run(until=20) == 20  # at now: no-op
        assert sim.run(until=3) == 20  # before now: clock never reverses
        assert sim.now == 20

    def test_drained_early_with_blocked_does_not_raise(self):
        """Bounded runs report stuck processes instead of raising --
        the pipeline may simply have outlived its sources."""

        def stuck(ch):
            yield Timeout(4)
            yield Get(ch)

        sim = Simulator()
        ch = sim.channel("line", capacity=1)
        sim.add_process(stuck(ch), name="sink")
        assert sim.run(until=1000) == 4  # drained at the Get, no error
        assert sim.blocked_report() == [
            {"name": "sink", "state": RX_BLOCK, "channel": "line", "since": 4}
        ]

    def test_resumable_across_many_bounded_runs(self):
        ticks = []

        def proc():
            while True:
                yield Timeout(10)
                ticks.append(True)

        sim = Simulator()
        sim.add_process(proc())
        for horizon in (5, 15, 25, 100):
            sim.run(until=horizon)
            assert sim.now == horizon
        assert len(ticks) == 10
