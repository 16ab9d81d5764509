"""Flow-controlled channels: the model of a Raw static-network link.

A :class:`Channel` is a bounded FIFO register with an optional propagation
``latency``.  ``Put`` succeeds immediately when a slot is free and the word
becomes visible to ``Get`` ``latency`` cycles later; when the channel is
full the putter blocks (Raw's static network "stalls when data is not
available" and back-pressures when full -- thesis section 3.3).  With
``capacity=1`` and ``latency=1`` a chain of forwarding processes sustains
exactly one word per cycle per hop, matching the static network's
bandwidth.
"""

from __future__ import annotations

from collections import deque
from numbers import Integral
from typing import Any, Deque, Tuple

from repro.telemetry import runtime as _telemetry
from repro.telemetry.events import EV_LINK_DOWN, EV_LINK_UP


class Channel:
    """Bounded FIFO with propagation latency and blocking semantics.

    The kernel manipulates the private wait queues; user code only ever
    names channels inside ``Put``/``Get`` commands.  ``capacity`` counts
    words resident in the link stage (in flight plus ready).
    """

    __slots__ = (
        "name",
        "capacity",
        "latency",
        "_items",
        "_putters",
        "_getters",
        "_service_at",
        "_registered",
        "_fault_capacity",
    )

    def __init__(self, name: str = "", capacity: int = 1, latency: int = 0):
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        if not isinstance(latency, Integral):
            raise TypeError(f"channel latency must be an integer, not {latency!r}")
        if latency < 0:
            raise ValueError("channel latency must be >= 0")
        self.name = name
        self.capacity = capacity
        self.latency = latency
        # Each item is (ready_time, value).
        self._items: Deque[Tuple[int, Any]] = deque()
        self._putters: Deque[Any] = deque()  # waiters blocked on Put
        self._getters: Deque[Any] = deque()  # waiters blocked on Get
        # Cycle of the earliest pending kernel "service" event for this
        # channel, or -1; lets the kernel skip scheduling duplicates.
        self._service_at: int = -1
        # True once the kernel has listed this channel in its registry of
        # channels that ever parked a waiter (used for deadlock reports).
        self._registered: bool = False
        # Saved capacity while a link-down fault holds this channel, or
        # None when the link is healthy (see fault_down / fault_restore).
        self._fault_capacity = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.name!r}, cap={self.capacity}, lat={self.latency}, "
            f"items={len(self._items)}, putters={len(self._putters)}, "
            f"getters={len(self._getters)})"
        )

    # -- introspection used by tests and the deadlock reporter ----------
    @property
    def occupancy(self) -> int:
        return len(self._items)

    # -- the fast-path word operations --------------------------------
    # One implementation shared by the kernel's blocking commands, the
    # burst state machines, and the Simulator's non-blocking helpers
    # (peek / try_get / try_put).
    def peek_value(self, now: int) -> Tuple[bool, Any]:
        """(True, head word) if one is ready at ``now``, without
        consuming it; (False, None) otherwise."""
        items = self._items
        if items and items[0][0] <= now:
            return True, items[0][1]
        return False, None

    def pop_ready(self, now: int) -> Tuple[bool, Any]:
        """Consume and return the head word if ready: (True, value);
        (False, None) when empty or still in flight."""
        items = self._items
        if items and items[0][0] <= now:
            return True, items.popleft()[1]
        return False, None

    def push(self, value: Any, now: int) -> bool:
        """Deposit ``value`` (visible ``latency`` cycles later) if a slot
        is free; False when the channel is full."""
        items = self._items
        if len(items) >= self.capacity:
            return False
        items.append((now + self.latency, value))
        return True

    def seed(self, value: Any, ready_at: int = 0) -> None:
        """Pre-load a word before the simulation starts (e.g. a mutex
        token); bypasses capacity checks and waiter bookkeeping."""
        self._items.append((ready_at, value))

    # -- fault-injection hooks (repro.faults) ---------------------------
    # Every kernel put path (blocking Put, burst state machines, inlined
    # arms in Simulator._step) admits a word only when
    # ``len(_items) < capacity``, and every get path hands out the head
    # only when ``_items[0][0] <= now``.  Dropping capacity to 0 and
    # pushing ready times past the outage therefore silences the link on
    # *all* paths -- including bursts -- with zero cost to fault-free runs.

    @property
    def fault_active(self) -> bool:
        return self._fault_capacity is not None

    def fault_down(self, until: int, now: int = -1) -> None:
        """Take the link down: no word enters or leaves before ``until``.

        Words already in the link stage are held (they re-arrive when the
        link comes back, modeling a stalled wire, not a lossy one);
        putters back-pressure against the zeroed capacity.  ``now`` is
        only used to cycle-stamp the telemetry event.
        """
        if self._fault_capacity is None:
            self._fault_capacity = self.capacity
        self.capacity = 0
        if self._items:
            self._items = deque(
                (max(ready, until), value) for ready, value in self._items
            )
        tel = _telemetry.RECORDER
        if tel is not None:
            tel.events.emit(now, EV_LINK_DOWN, self.name, until)
            tel.registry.count("channel.link_downs")

    def fault_restore(self, now: int = -1) -> bool:
        """Bring the link back up; True if it was actually down.

        The caller (the injector) must re-service the channel so parked
        putters/getters wake -- the channel itself has no kernel handle.
        """
        if self._fault_capacity is None:
            return False
        self.capacity = self._fault_capacity
        self._fault_capacity = None
        tel = _telemetry.RECORDER
        if tel is not None:
            tel.events.emit(now, EV_LINK_UP, self.name, None)
        return True

    def fault_corrupt_head(self, mutate) -> Tuple[bool, Any]:
        """Apply ``mutate`` to the head in-flight word, in place.

        Returns ``(True, new_value)`` when a word was present, else
        ``(False, None)`` -- a corruption event aimed at an idle link is
        a miss, which the resilience metrics count separately.
        """
        if not self._items:
            return False, None
        ready, value = self._items[0]
        new_value = mutate(value)
        self._items[0] = (ready, new_value)
        return True, new_value
