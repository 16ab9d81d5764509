"""The event loop: generator processes over flow-controlled channels.

Processes yield command objects and are resumed by the kernel:

``Timeout(n, state=BUSY)``
    Spend ``n`` cycles in ``state`` (busy computing, or blocked on the
    memory system when ``state=MEM_BLOCK``).

``Put(channel, value)``
    Write a word to a channel.  Completes in the same cycle when the
    channel has a free slot; otherwise the process blocks (recorded as
    ``TX_BLOCK`` in the trace) until a slot frees up.

``Get(channel)``
    Read a word.  Completes in the same cycle when a word is ready;
    otherwise blocks (``RX_BLOCK``).  The read value is the result of the
    ``yield`` expression.

``PutBurst(channel, values, gap=1)`` / ``GetBurst(channel, count)`` /
``RouteBurst(moves, count)``
    Burst forms of the word loops tile programs would otherwise run one
    yield at a time (ingress DMA, egress drain, switch-route repeats).
    They are *semantically identical* to the equivalent loop of
    ``Put``/``Get``/``Timeout`` commands -- same cycle counts, same
    blocking, same trace -- but execute inside the kernel as small state
    machines, without a generator round-trip per word.

This is deliberately the programming model of a Raw tile: register-mapped
network ports with blocking reads/writes, plus a cycle cost for every
instruction executed (expressed as Timeouts by the tile-program code in
:mod:`repro.raw` and :mod:`repro.router`).

Scheduler internals (see DESIGN.md "Kernel internals"): events live in
one list per pending cycle, kept in a dict keyed by the cycle, and a
heap of those cycles gives the next event time -- a list append
schedules, one list drains per cycle, and a sparse schedule skips its
empty cycles.  Append order is schedule order, so no sequence number
breaks ties.  Commands dispatch on a small integer class tag instead of
an ``isinstance`` chain, and a channel never has more than one pending
``service`` event per cycle.

Times are integer cycles: a ``Timeout`` delay, a ``PutBurst`` gap and a
channel latency are refused at construction unless they are integers
(Python or numpy).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from numbers import Integral
from typing import Any, Deque, Dict, Generator, List, Optional, Sequence, Tuple

from repro.sim.channel import Channel
from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.trace import Trace
from repro.telemetry import runtime as _telemetry

# Canonical trace states (thesis Fig 7-3 distinguishes computing from
# "blocked on transmit, receive, or cache miss").
BUSY = "busy"
IDLE = "idle"
TX_BLOCK = "tx"
RX_BLOCK = "rx"
MEM_BLOCK = "mem"

# Fault-window states recorded by the injector (repro.faults): a link or
# port held down by a fault, or stalled by an overload window.
DOWN = "down"
STALLED = "stalled"

BLOCKED_STATES = frozenset({TX_BLOCK, RX_BLOCK, MEM_BLOCK})
FAULT_STATES = frozenset({DOWN, STALLED})

# Event kinds inside the scheduler's per-cycle lists.
_EV_RESUME = 0  #: resume a process or burst state machine
_EV_SERVICE = 1  #: move words/waiters through a channel
_EV_GET = 2  #: complete a deferred Get: pop the head word, resume the process


class Timeout:
    """Advance the process's local clock by ``delay`` cycles."""

    _kind = 0
    __slots__ = ("delay", "state")

    def __init__(self, delay: int, state: str = BUSY):
        if delay.__class__ is not int and not isinstance(delay, Integral):
            raise TypeError(f"Timeout delay must be an integer, not {delay!r}")
        if delay < 0:
            raise ValueError("Timeout delay must be >= 0")
        self.delay = delay
        self.state = state


class Put:
    """Write ``value`` into ``channel`` (blocking when full)."""

    _kind = 1
    __slots__ = ("channel", "value")

    def __init__(self, channel: Channel, value: Any):
        self.channel = channel
        self.value = value


class Get:
    """Read a word from ``channel`` (blocking when empty)."""

    _kind = 2
    __slots__ = ("channel",)

    def __init__(self, channel: Channel):
        self.channel = channel


class PutBurst:
    """Stream ``values`` into ``channel`` at one word per ``gap`` cycles.

    Cycle-for-cycle equivalent to::

        for v in values:
            yield Put(channel, v)
            yield Timeout(gap, state)

    including blocking (``TX_BLOCK``) when the channel back-pressures,
    but executed inside the kernel without resuming the generator per
    word.  ``gap=0`` degenerates to back-to-back puts in one cycle.
    """

    _kind = 3
    __slots__ = ("channel", "values", "gap", "state")

    def __init__(
        self, channel: Channel, values: Sequence[Any], gap: int = 1, state: str = BUSY
    ):
        if gap.__class__ is not int and not isinstance(gap, Integral):
            raise TypeError(f"PutBurst gap must be an integer, not {gap!r}")
        if gap < 0:
            raise ValueError("PutBurst gap must be >= 0")
        self.channel = channel
        self.values = values
        self.gap = gap
        self.state = state


class GetBurst:
    """Read ``count`` words from ``channel``; yields the list of values.

    Cycle-for-cycle equivalent to::

        [(yield Get(channel)) for _ in range(count)]

    including per-word ``RX_BLOCK`` blocking, without a generator
    round-trip per word.
    """

    _kind = 4
    __slots__ = ("channel", "count")

    def __init__(self, channel: Channel, count: int):
        if count < 0:
            raise ValueError("GetBurst count must be >= 0")
        self.channel = channel
        self.count = count


class RouteBurst:
    """``count`` repetitions of a switch route: read each distinct source
    once, then write the full fanout.

    Cycle-for-cycle equivalent to::

        for _ in range(count):
            vals = {}
            for src in distinct_sources:   # first-appearance order
                vals[src] = yield Get(src)
            for src, dst in moves:
                yield Put(dst, vals[src])

    which is exactly the interpreter loop of
    :meth:`repro.raw.switchproc.SwitchProcessor.execute_one`.  The
    instruction's all-or-nothing stall behaviour is preserved because it
    was only ever emergent from those blocking reads/writes.
    """

    _kind = 5
    __slots__ = ("sources", "moves", "count", "single")

    def __init__(self, moves: Sequence[Tuple[Channel, Channel]], count: int = 1):
        if count < 1:
            raise ValueError("RouteBurst count must be >= 1")
        if not moves:
            raise ValueError("RouteBurst needs at least one move (use Timeout)")
        sources: List[Channel] = []
        for src, _ in moves:
            if not any(s is src for s in sources):
                sources.append(src)
        index = {id(src): i for i, src in enumerate(sources)}
        self.sources: Tuple[Channel, ...] = tuple(sources)
        self.moves: Tuple[Tuple[int, Channel], ...] = tuple(
            (index[id(src)], dst) for src, dst in moves
        )
        self.count = count
        #: Precomputed: route the command through the kernel's
        #: single-move fast path (:class:`_RouteSM1`).
        self.single = len(self.moves) == 1


class Process:
    """A running generator plus its bookkeeping."""

    _wkind = 0  #: waiter-queue dispatch tag (burst SMs use 1..3)
    __slots__ = (
        "gen",
        "name",
        "trace_key",
        "alive",
        "result",
        "_block_start",
        "_block_state",
        "_block_channel",
    )

    def __init__(self, gen: Generator, name: str, trace_key: Optional[str]):
        self.gen = gen
        self.name = name
        self.trace_key = trace_key
        self.alive = True
        self.result: Any = None
        self._block_start: int = -1
        self._block_state: str = ""
        self._block_channel: Optional[Channel] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, alive={self.alive})"


class _GetSM:
    """Kernel-side state of an in-progress :class:`GetBurst`."""

    _wkind = 1
    __slots__ = ("proc", "ch", "remaining", "values")

    def __init__(self, proc: Process, ch: Channel, count: int):
        self.proc = proc
        self.ch = ch
        self.remaining = count
        self.values: List[Any] = []


class _RouteSM:
    """Kernel-side state of an in-progress :class:`RouteBurst`."""

    _wkind = 2
    __slots__ = ("proc", "sources", "moves", "remaining", "values", "src_idx", "put_idx")

    def __init__(self, proc: Process, cmd: RouteBurst):
        self.proc = proc
        self.sources = cmd.sources
        self.moves = cmd.moves
        self.remaining = cmd.count
        self.values: List[Any] = [None] * len(cmd.sources)
        self.src_idx = 0
        self.put_idx = 0


class _RouteSM1(_RouteSM):
    """A :class:`_RouteSM` for the (dominant) single-move instruction.

    Same fields and mid-execution state as the generic machine -- the
    channel-service arms handle both identically -- but dispatched to a
    specialized advance loop with no index machinery.
    """

    _wkind = 4
    __slots__ = ()


class _PutSM:
    """Kernel-side state of an in-progress :class:`PutBurst`."""

    _wkind = 3
    __slots__ = ("proc", "ch", "values", "gap", "state", "idx", "phase")

    def __init__(self, proc: Process, cmd: PutBurst):
        self.proc = proc
        self.ch = cmd.channel
        self.values = cmd.values
        self.gap = cmd.gap
        self.state = cmd.state
        self.idx = 0  #: next value to admit
        self.phase = 0  #: 0 = admit word ``idx``; 1 = gap after word ``idx``


class Simulator:
    """Cycle-based discrete-event simulator.

    Parameters
    ----------
    trace:
        Optional :class:`Trace` receiving state intervals of processes
        created with a ``trace_key``.
    """

    def __init__(self, trace: Optional[Trace] = None):
        self.now: int = 0
        self.trace = trace
        #: Scheduler activity counter: events executed plus process /
        #: burst steps.  Monotonic across runs; the bench harness
        #: divides it by wall time.
        self.events_processed: int = 0
        # Telemetry recorder captured at construction (None when
        # disabled); the hot loops guard every use with one truthiness
        # check so disabled-mode runs are bit-identical.
        self._tel = _telemetry.RECORDER
        if self._tel is not None:
            self._tel.registry.gauge(
                "kernel.events_dispatched", lambda: self.events_processed
            )
        # The event store: one list of (kind, payload, value) entries
        # per pending cycle, and a heap of those cycles.  A cycle is
        # pushed when its list is created and popped, list and all, when
        # run() drains it, so append order *is* schedule order -- the
        # FIFO tie-break a single heap would need sequence numbers for.
        # A same-cycle schedule made during the drain creates a fresh
        # list, pushes the cycle again and is drained next.
        self._slots: Dict[int, List[tuple]] = {}
        self._times: List[int] = []
        # Runnable queue: same (kind, payload, value) tuples as the
        # per-cycle lists (kind is ignored on drain; sharing the shape
        # lets the event loop re-queue resume events without
        # reallocating).
        self._ready: Deque[tuple] = deque()
        self._processes: List[Process] = []
        # Channels that have ever parked a waiter; scanned when the
        # event queue drains to find deadlocked processes (keeping a
        # central blocked dict costs two dict writes per block, which is
        # the kernel's hottest pattern).
        self._wait_channels: List[Channel] = []
        self._drained_blocked: List[Process] = []

    # ------------------------------------------------------------------
    def add_process(
        self,
        gen: Generator,
        name: str = "proc",
        trace_key: Optional[str] = None,
    ) -> Process:
        """Register a generator as a process starting at the current cycle."""
        if not hasattr(gen, "send"):
            raise SimulationError(f"process {name!r} is not a generator")
        proc = Process(gen, name, trace_key)
        self._processes.append(proc)
        self._ready.append((_EV_RESUME, proc, None))
        return proc

    def channel(self, name: str = "", capacity: int = 1, latency: int = 0) -> Channel:
        return Channel(name=name, capacity=capacity, latency=latency)

    # ------------------------------------------------------------------
    def _schedule(self, time: int, kind: int, payload, value=None) -> None:
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = [(kind, payload, value)]
            heappush(self._times, time)
        else:
            slot.append((kind, payload, value))

    def _schedule_service(self, ch: Channel, time: int) -> None:
        """Schedule a channel service, skipping exact duplicates (several
        same-cycle puts would otherwise each schedule one)."""
        if ch._service_at == time:
            return
        ch._service_at = time
        self._schedule(time, _EV_SERVICE, ch)

    def _record(self, proc: Process, state: str, start: int, end: int) -> None:
        if self.trace is not None and proc.trace_key is not None:
            self.trace.record(proc.trace_key, state, start, end)

    def _mark_blocked(self, proc: Process, state: str, channel: Channel) -> None:
        proc._block_start = self.now
        proc._block_state = state
        proc._block_channel = channel
        if not channel._registered:
            channel._registered = True
            self._wait_channels.append(channel)

    def _unmark_blocked(self, proc: Process) -> None:
        """Clear block bookkeeping and record the blocked interval."""
        if proc._block_start >= 0:
            self._record(proc, proc._block_state, proc._block_start, self.now)
            proc._block_start = -1
            proc._block_channel = None

    def _unblock(self, proc: Process, value: Any) -> None:
        self._unmark_blocked(proc)
        self._ready.append((_EV_RESUME, proc, value))

    def _notify_getters(self, ch: Channel) -> None:
        """A put just appended a word and getters are waiting.

        When the word is already consumable, run the channel service.
        When it is still propagating and exactly one getter waits for
        exactly this word, convert the parked waiter into a direct wake
        at the word's ready time -- the wake event lands at the same
        position in that cycle's list as the channel-service event would
        have (both are scheduled at this exact point), and the resumed
        waiter re-checks readiness, so ordering and outcomes are
        unchanged; the generic parked-waiter path is kept for fan-in.
        """
        items = ch._items
        ready_at = items[0][0]
        now = self.now
        if ready_at <= now:
            self._service_channel(ch)
            return
        getters = ch._getters
        if len(getters) == 1 and len(items) == 1:
            g = getters.popleft()
            if g.__class__ is Process:
                self._schedule(ready_at, _EV_GET, g, ch)
            else:
                self._schedule(ready_at, _EV_RESUME, g)
        else:
            self._schedule_service(ch, ready_at)

    # ------------------------------------------------------------------
    # Non-blocking channel access for synchronous controllers (the
    # Rotating Crossbar's fabric loop inspects four head-of-line queues
    # and consumes only the granted ones; a blocking Get cannot express
    # that).  Only call these from *inside* a running process.
    def peek(self, ch: Channel):
        """(True, value) if a word is ready now, else (False, None).
        Does not consume the word."""
        return ch.peek_value(self.now)

    def try_get(self, ch: Channel):
        """Consume a ready word: (True, value), or (False, None)."""
        ok, value = ch.pop_ready(self.now)
        if ok and ch._putters:
            self._service_channel(ch)
        return ok, value

    def try_put(self, ch: Channel, value: Any) -> bool:
        """Deposit a word if there is room; False when the channel is full
        (lets line-card models drop instead of blocking, matching the
        thesis's externally-dropping FIFO assumption)."""
        if not ch.push(value, self.now):
            return False
        if ch._getters:
            self._notify_getters(ch)
        return True

    # ------------------------------------------------------------------
    def _service_channel(self, ch: Channel) -> None:
        """Move words/waiters through a channel at the current cycle."""
        now = self.now
        items = ch._items
        getters = ch._getters
        putters = ch._putters
        ready = self._ready
        while True:
            # Deliver ready words to blocked getters.
            if getters and items and items[0][0] <= now:
                g = getters.popleft()
                value = items.popleft()[1]
                if g.__class__ is Process:
                    self._unblock(g, value)
                else:
                    # Burst state machine: hand it the word and let it
                    # continue from the ready queue, exactly where the
                    # equivalent word-loop process would resume.
                    self._unmark_blocked(g.proc)
                    if g._wkind == 1:  # _GetSM
                        g.values.append(value)
                        g.remaining -= 1
                    else:  # _RouteSM reading a source
                        g.values[g.src_idx] = value
                        g.src_idx += 1
                    ready.append((_EV_RESUME, g, None))
                continue
            # Admit blocked putters into freed slots.
            if putters and len(items) < ch.capacity:
                p = putters.popleft()
                if p.__class__ is tuple:  # plain Put: (process, value)
                    proc, value = p
                    items.append((now + ch.latency, value))
                    self._unblock(proc, None)
                else:
                    # Burst state machine blocked mid-put: admit the
                    # pending word here (the put completes at service
                    # time, as it did for a blocked Put command) and
                    # resume the machine from the ready queue.
                    if p._wkind == 3:  # _PutSM
                        items.append((now + ch.latency, p.values[p.idx]))
                        p.phase = 1
                    else:  # _RouteSM writing a destination
                        items.append(
                            (now + ch.latency, p.values[p.moves[p.put_idx][0]])
                        )
                        p.put_idx += 1
                    self._unmark_blocked(p.proc)
                    ready.append((_EV_RESUME, p, None))
                continue
            break
        # If getters remain and a word is merely in flight, wake later.
        if getters and items:
            ready_at = items[0][0]
            if ready_at > now:
                self._schedule_service(ch, ready_at)

    # ------------------------------------------------------------------
    # Burst state machines.  Each advance function runs its machine as
    # far as it can go at the current cycle and returns True when the
    # whole burst is complete (the owning process then resumes).  The
    # machines block and resume through the same waiter queues, trace
    # records, and ready-queue positions the equivalent command loops
    # used, which is what keeps burst and word-at-a-time execution
    # cycle-identical.
    def _advance_get(self, sm: _GetSM) -> bool:
        # Same inlining note as _advance_put.
        now = self.now
        ch = sm.ch
        items = ch._items
        values = sm.values
        while sm.remaining:
            if items and items[0][0] <= now:
                values.append(items.popleft()[1])
                sm.remaining -= 1
                if ch._putters:
                    self._service_channel(ch)
            elif items:
                # Word in flight: sleep until it lands.  Channels are
                # single-consumer, so the machine resumes directly at the
                # word's ready time instead of parking in the getter
                # queue behind a channel-service event -- same wake
                # cycle, same list position.  The RX interval is
                # recorded at resume, in run()'s drain loop.
                proc = sm.proc
                proc._block_start = now
                proc._block_state = RX_BLOCK
                ready_at = items[0][0]
                slot = self._slots.get(ready_at)
                if slot is None:
                    self._slots[ready_at] = [(_EV_RESUME, sm, None)]
                    heappush(self._times, ready_at)
                else:
                    slot.append((_EV_RESUME, sm, None))
                return False
            else:
                ch._getters.append(sm)
                proc = sm.proc
                proc._block_start = now
                proc._block_state = RX_BLOCK
                proc._block_channel = ch
                if not ch._registered:
                    ch._registered = True
                    self._wait_channels.append(ch)
                return False
        return True

    def _advance_put(self, sm: _PutSM) -> bool:
        # Inlines the fast paths of _notify_getters / _schedule /
        # _mark_blocked (call overhead dominates at ~10^6 words per run);
        # any semantic change here must be mirrored in those methods.
        now = self.now
        ch = sm.ch
        values = sm.values
        n = len(values)
        items = ch._items
        capacity = ch.capacity
        latency = ch.latency
        trace = self.trace
        while True:
            if sm.phase == 0:
                idx = sm.idx
                if idx >= n:
                    return True
                if len(items) >= capacity:
                    ch._putters.append(sm)
                    proc = sm.proc
                    proc._block_start = now
                    proc._block_state = TX_BLOCK
                    proc._block_channel = ch
                    if not ch._registered:
                        ch._registered = True
                        self._wait_channels.append(ch)
                    return False
                items.append((now + latency, values[idx]))
                getters = ch._getters
                if getters:
                    ready_at = items[0][0]
                    if ready_at > now and len(getters) == 1 and len(items) == 1:
                        g = getters.popleft()
                        ev = (
                            (_EV_GET, g, ch)
                            if g.__class__ is Process
                            else (_EV_RESUME, g, None)
                        )
                        slot = self._slots.get(ready_at)
                        if slot is None:
                            self._slots[ready_at] = [ev]
                            heappush(self._times, ready_at)
                        else:
                            slot.append(ev)
                    else:
                        self._notify_getters(ch)
                sm.phase = 1
            else:
                # The word at ``idx`` is admitted; spend the inter-word
                # gap (the per-word instruction cost of the DMA loop).
                sm.idx += 1
                sm.phase = 0
                gap = sm.gap
                if gap:
                    proc = sm.proc
                    if trace is not None and proc.trace_key is not None:
                        trace.record(proc.trace_key, sm.state, now, now + gap)
                    t = now + gap
                    slot = self._slots.get(t)
                    if slot is None:
                        self._slots[t] = [(_EV_RESUME, sm, None)]
                        heappush(self._times, t)
                    else:
                        slot.append((_EV_RESUME, sm, None))
                    return False

    def _advance_route(self, sm: _RouteSM) -> bool:
        # The kernel's innermost loop; same inlining note as _advance_put.
        now = self.now
        sources = sm.sources
        nsrc = len(sources)
        moves = sm.moves
        nmoves = len(moves)
        values = sm.values
        proc = sm.proc
        while True:
            src_idx = sm.src_idx
            while src_idx < nsrc:
                ch = sources[src_idx]
                items = ch._items
                if items:
                    ready_at = items[0][0]
                    if ready_at <= now:
                        values[src_idx] = items.popleft()[1]
                        src_idx += 1
                        if ch._putters:
                            self._service_channel(ch)
                        continue
                    # Word in flight: sleep until it lands (see
                    # _advance_get).
                    sm.src_idx = src_idx
                    proc._block_start = now
                    proc._block_state = RX_BLOCK
                    slot = self._slots.get(ready_at)
                    if slot is None:
                        self._slots[ready_at] = [(_EV_RESUME, sm, None)]
                        heappush(self._times, ready_at)
                    else:
                        slot.append((_EV_RESUME, sm, None))
                    return False
                sm.src_idx = src_idx
                ch._getters.append(sm)
                proc._block_start = now
                proc._block_state = RX_BLOCK
                proc._block_channel = ch
                if not ch._registered:
                    ch._registered = True
                    self._wait_channels.append(ch)
                return False
            sm.src_idx = src_idx
            put_idx = sm.put_idx
            while put_idx < nmoves:
                pos, dst = moves[put_idx]
                items = dst._items
                if len(items) < dst.capacity:
                    items.append((now + dst.latency, values[pos]))
                    getters = dst._getters
                    if getters:
                        ready_at = items[0][0]
                        if ready_at > now and len(getters) == 1 and len(items) == 1:
                            g = getters.popleft()
                            ev = (
                                (_EV_GET, g, dst)
                                if g.__class__ is Process
                                else (_EV_RESUME, g, None)
                            )
                            slot = self._slots.get(ready_at)
                            if slot is None:
                                self._slots[ready_at] = [ev]
                                heappush(self._times, ready_at)
                            else:
                                slot.append(ev)
                        else:
                            self._notify_getters(dst)
                    put_idx += 1
                else:
                    sm.put_idx = put_idx
                    dst._putters.append(sm)
                    proc._block_start = now
                    proc._block_state = TX_BLOCK
                    proc._block_channel = dst
                    if not dst._registered:
                        dst._registered = True
                        self._wait_channels.append(dst)
                    return False
            sm.remaining -= 1
            if sm.remaining == 0:
                sm.put_idx = put_idx
                return True
            sm.src_idx = 0
            sm.put_idx = 0

    def _advance_route1(self, sm: _RouteSM1) -> bool:
        # Single-move specialization of _advance_route: one source, one
        # destination, no fanout -- the shape of the egress relay, the
        # header feed, and most body instructions.  Blocking leaves
        # ``src_idx``/``put_idx``/``values`` exactly as the generic loop
        # would, so parked machines are serviced identically.
        now = self.now
        src = sm.sources[0]
        dst = sm.moves[0][1]
        proc = sm.proc
        while True:
            if sm.src_idx == 0:
                items = src._items
                if items:
                    head = items[0]
                    if head[0] <= now:
                        items.popleft()
                        word = head[1]
                        if src._putters:
                            self._service_channel(src)
                    else:
                        # Word in flight: sleep until it lands.
                        proc._block_start = now
                        proc._block_state = RX_BLOCK
                        ready_at = head[0]
                        slot = self._slots.get(ready_at)
                        if slot is None:
                            self._slots[ready_at] = [(_EV_RESUME, sm, None)]
                            heappush(self._times, ready_at)
                        else:
                            slot.append((_EV_RESUME, sm, None))
                        return False
                else:
                    src._getters.append(sm)
                    proc._block_start = now
                    proc._block_state = RX_BLOCK
                    proc._block_channel = src
                    if not src._registered:
                        src._registered = True
                        self._wait_channels.append(src)
                    return False
            else:
                # Resumed after a channel service read/admitted the word.
                word = sm.values[0]
            if sm.put_idx == 0:
                items = dst._items
                if len(items) < dst.capacity:
                    items.append((now + dst.latency, word))
                    getters = dst._getters
                    if getters:
                        ready_at = items[0][0]
                        if ready_at > now and len(getters) == 1 and len(items) == 1:
                            g = getters.popleft()
                            ev = (
                                (_EV_GET, g, dst)
                                if g.__class__ is Process
                                else (_EV_RESUME, g, None)
                            )
                            slot = self._slots.get(ready_at)
                            if slot is None:
                                self._slots[ready_at] = [ev]
                                heappush(self._times, ready_at)
                            else:
                                slot.append(ev)
                        else:
                            self._notify_getters(dst)
                else:
                    sm.values[0] = word
                    sm.src_idx = 1
                    dst._putters.append(sm)
                    proc._block_start = now
                    proc._block_state = TX_BLOCK
                    proc._block_channel = dst
                    if not dst._registered:
                        dst._registered = True
                        self._wait_channels.append(dst)
                    return False
            sm.remaining -= 1
            if sm.remaining == 0:
                return True
            sm.src_idx = 0
            sm.put_idx = 0

    def _complete_deferred_get(self, proc: Process, ch: Channel) -> None:
        """Finish a Get that slept until its in-flight word's ready time.

        Equivalent to the channel service the old path scheduled: pop
        the word, resume the process, admit any blocked putters into the
        freed slot.  If the word was taken meanwhile (``try_get``), fall
        back to waiting again without restarting the blocked interval.
        """
        now = self.now
        items = ch._items
        if items and items[0][0] <= now:
            value = items.popleft()[1]
            if proc._block_start >= 0:
                self._record(proc, proc._block_state, proc._block_start, now)
                proc._block_start = -1
            self._ready.append((_EV_RESUME, proc, value))
            if ch._putters:
                self._service_channel(ch)
        elif items:
            self._schedule(items[0][0], _EV_GET, proc, ch)
        else:
            ch._getters.append(proc)
            proc._block_channel = ch
            if not ch._registered:
                ch._registered = True
                self._wait_channels.append(ch)

    # ------------------------------------------------------------------
    def _step(self, proc: Process, send_value: Any) -> None:
        """Run one process until it blocks, sleeps, or terminates.

        The Put/Get arms inline :meth:`Channel.push` / ``pop_ready`` --
        this loop is the simulator's innermost -- but must match those
        methods' semantics exactly.
        """
        gen = proc.gen
        send = gen.send
        now = self.now
        tel = self._tel
        while True:
            try:
                cmd = gen.send(send_value)
            except StopIteration as stop:
                proc.alive = False
                proc.result = stop.value
                return
            send_value = None

            try:
                kind = cmd._kind
            except AttributeError:
                raise SimulationError(
                    f"process {proc.name!r} yielded unsupported command {cmd!r}"
                ) from None

            if tel is not None:
                # Command tags index telemetry's CMD_NAMES directly.
                tel.kernel.cmd_counts[kind] += 1

            if kind == 1:  # Put
                ch = cmd.channel
                items = ch._items
                if len(items) < ch.capacity:
                    items.append((now + ch.latency, cmd.value))
                    if ch._getters:
                        self._notify_getters(ch)
                    continue  # put completed this cycle
                ch._putters.append((proc, cmd.value))
                self._mark_blocked(proc, TX_BLOCK, ch)
                return

            if kind == 2:  # Get
                ch = cmd.channel
                items = ch._items
                if items and items[0][0] <= now:
                    send_value = items.popleft()[1]
                    if ch._putters:
                        self._service_channel(ch)
                    continue  # get completed this cycle
                if items:  # word in flight: wake directly when it lands
                    proc._block_start = now
                    proc._block_state = RX_BLOCK
                    self._schedule(items[0][0], _EV_GET, proc, ch)
                    return
                ch._getters.append(proc)
                self._mark_blocked(proc, RX_BLOCK, ch)
                return

            if kind == 0:  # Timeout (_record and _schedule, inlined)
                delay = cmd.delay
                if delay == 0:
                    continue
                t = now + delay
                trace = self.trace
                if trace is not None and proc.trace_key is not None:
                    trace.record(proc.trace_key, cmd.state, now, t)
                slot = self._slots.get(t)
                if slot is None:
                    self._slots[t] = [(_EV_RESUME, proc, None)]
                    heappush(self._times, t)
                else:
                    slot.append((_EV_RESUME, proc, None))
                return

            if kind == 5:  # RouteBurst
                if cmd.single:
                    if self._advance_route1(_RouteSM1(proc, cmd)):
                        continue
                elif self._advance_route(_RouteSM(proc, cmd)):
                    continue
                return

            if kind == 3:  # PutBurst
                if not len(cmd.values):
                    continue
                sm = _PutSM(proc, cmd)
                if self._advance_put(sm):
                    continue
                return

            if kind == 4:  # GetBurst
                if cmd.count == 0:
                    send_value = []
                    continue
                sm = _GetSM(proc, cmd.channel, cmd.count)
                if self._advance_get(sm):
                    send_value = sm.values
                    continue
                return

            raise SimulationError(
                f"process {proc.name!r} yielded unsupported command {cmd!r}"
            )

    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, raise_on_deadlock: bool = True) -> int:
        """Run until the event queue drains or ``until`` cycles have elapsed.

        Returns the final simulation time, which always equals
        :attr:`now`.  The contract around ``until``:

        * If events remain beyond ``until``, the clock advances to
          exactly ``until`` and the simulator is resumable from there.
        * If the queue drains *before* ``until``, the clock stays at the
          last executed event -- it is **not** advanced to ``until``,
          because nothing can happen in between and measurement code
          divides by elapsed time.  Callers must use the returned time,
          not ``until``.  In this drained-early case
          :meth:`blocked_report` says which processes (if any) were left
          stuck on channels and since when; no :class:`DeadlockError` is
          raised (the bounded run may simply have outlived its sources).
        * ``until`` at or before the current clock is a no-op: the clock
          never moves backwards.

        When the queue drains with processes still blocked and no
        ``until`` was given, a :class:`DeadlockError` is raised unless
        ``raise_on_deadlock`` is false (useful for open-ended pipelines
        whose sources finished).
        """
        if until is not None and until <= self.now:
            return self.now
        self._drained_blocked = []
        ready = self._ready
        slots = self._slots
        times = self._times
        trace = self.trace
        tel = self._tel
        ep = self.events_processed
        try:
            while True:
                now = self.now
                while ready:
                    entry = ready.popleft()
                    item = entry[1]
                    if item.__class__ is Process:
                        if item.alive:
                            ep += 1
                            self._step(item, entry[2])
                    else:
                        # Burst state machine: close any deferred-wait
                        # interval, advance it, and when the whole burst
                        # is done resume the owning process (with the
                        # collected words for GetBurst).
                        ep += 1
                        proc = item.proc
                        if proc._block_start >= 0:
                            if trace is not None and proc.trace_key is not None:
                                trace.record(
                                    proc.trace_key,
                                    proc._block_state,
                                    proc._block_start,
                                    now,
                                )
                            proc._block_start = -1
                        wk = item._wkind
                        if wk == 4:
                            if self._advance_route1(item):
                                self._step(proc, None)
                        elif wk == 3:
                            if self._advance_put(item):
                                self._step(proc, None)
                        elif wk == 2:
                            if self._advance_route(item):
                                self._step(proc, None)
                        elif self._advance_get(item):
                            self._step(proc, item.values)

                # The next event time: the least pending cycle.
                if not times:
                    break
                t = times[0]
                if until is not None and t > until:
                    self.now = until
                    return self.now
                heappop(times)
                slot = slots.pop(t)
                self.now = t

                if tel is not None:
                    prof = tel.kernel
                    n = len(slot)
                    prof.bucket_drains += 1
                    prof.bucket_events += n
                    if n > prof.bucket_peak:
                        prof.bucket_peak = n
                    if len(times) > prof.slot_peak:
                        prof.slot_peak = len(times)

                for ev in slot:
                    ep += 1
                    kind = ev[0]
                    if kind == _EV_RESUME:
                        payload = ev[1]
                        if payload.__class__ is Process:
                            if payload.alive:
                                ready.append(ev)
                        else:
                            ready.append(ev)
                    elif kind == _EV_SERVICE:
                        ch = ev[1]
                        if ch._service_at == t:
                            ch._service_at = -1
                        self._service_channel(ch)
                    else:  # _EV_GET: payload is the process, value the channel
                        if ev[1].alive:
                            self._complete_deferred_get(ev[1], ev[2])
        finally:
            self.events_processed = ep

        blocked = self._collect_blocked()
        self._drained_blocked = blocked
        if blocked and raise_on_deadlock and until is None:
            raise DeadlockError(blocked, now=self.now)
        return self.now

    def _collect_blocked(self) -> List[Process]:
        """Processes parked in channel wait queues (a process can wait on
        at most one channel, so no dedup is needed)."""
        out: List[Process] = []
        for ch in self._wait_channels:
            for g in ch._getters:
                proc = g if g.__class__ is Process else g.proc
                if proc.alive:
                    out.append(proc)
            for p in ch._putters:
                proc = p[0] if p.__class__ is tuple else p.proc
                if proc.alive:
                    out.append(proc)
        return out

    def blocked_report(self) -> List[Dict[str, Any]]:
        """Processes left blocked when the last :meth:`run` drained.

        One dict per stuck process: ``name``, ``state`` (``tx``/``rx``),
        ``channel`` (the channel's name, or None if it was unnamed), and
        ``since`` (the cycle it blocked).  Empty when the last run
        drained cleanly or was cut off by ``until`` with events still
        pending.
        """
        return [
            {
                "name": proc.name,
                "state": proc._block_state,
                "channel": (
                    proc._block_channel.name or None
                    if proc._block_channel is not None
                    else None
                ),
                "since": proc._block_start,
            }
            for proc in self._drained_blocked
        ]
