"""Non-blocking route lookup over the dynamic network (thesis section 8.2).

The thesis's argument for Raw as a lookup engine: network processors hide
memory latency with hardware threads, but "the Raw architecture is not
multi-threaded ... its exposed memory system allows for the same
advantages": the program sends read requests as dynamic-network messages
without stalling the cache, keeping several independent lookups in flight
while each lookup's own accesses stay serialized (a trie walk is a chain
of dependent loads).

:class:`LookupEngine` models exactly that: a stream of lookups, each a
chain of ``visits_per_lookup`` dependent memory reads of
``mem_latency_cycles`` each, issued by a single-issue processor that may
have up to ``max_outstanding`` reads in flight.  ``max_outstanding = 1``
is the blocking baseline (a conventional cached load); raising it is the
section-8.2 software-multithreading scheme.  The event-driven simulation
and the closed-form bound agree (tested), and the speedup saturates at
``min(max_outstanding, latency/issue)`` -- the claim, quantified.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.config import CostModel


@dataclass(frozen=True)
class LookupEngineResult:
    lookups: int
    cycles: int
    visits_per_lookup: int
    max_outstanding: int

    @property
    def cycles_per_lookup(self) -> float:
        return self.cycles / self.lookups if self.lookups else float("inf")


class LookupEngine:
    """Single tile processor walking many independent lookup chains."""

    def __init__(
        self,
        visits_per_lookup: int = 3,
        mem_latency_cycles: int = CostModel.default().cache_miss_cycles,
        issue_cycles: int = 4,
        max_outstanding: int = 1,
    ):
        if visits_per_lookup < 1:
            raise ValueError("a lookup needs at least one memory visit")
        if mem_latency_cycles < 1 or issue_cycles < 1:
            raise ValueError("latencies must be positive")
        if max_outstanding < 1:
            raise ValueError("need at least one outstanding request")
        self.visits = visits_per_lookup
        self.latency = mem_latency_cycles
        self.issue = issue_cycles
        self.window = max_outstanding

    # ------------------------------------------------------------------
    def simulate(self, lookups: int) -> LookupEngineResult:
        """Event-driven run of ``lookups`` independent chains."""
        if lookups < 1:
            raise ValueError("need at least one lookup")
        next_new = 0  # index of the next not-yet-started lookup
        remaining = {}  # active lookup -> visits left after the inflight one
        completions = []  # (ready_cycle, lookup id)
        now = 0
        inflight = 0
        done = 0
        while done < lookups:
            # Issue while the window allows: continue a ready chain or
            # start a new one.
            issued = False
            if inflight < self.window:
                if next_new < lookups:
                    now += self.issue
                    heapq.heappush(completions, (now + self.latency, next_new))
                    remaining[next_new] = self.visits - 1
                    next_new += 1
                    inflight += 1
                    issued = True
            if not issued:
                # Nothing issuable: retire the earliest completion.
                ready, lookup = heapq.heappop(completions)
                now = max(now, ready)
                inflight -= 1
                if remaining[lookup] > 0:
                    # Dependent next access of the same lookup.
                    now += self.issue
                    heapq.heappush(completions, (now + self.latency, lookup))
                    remaining[lookup] -= 1
                    inflight += 1
                else:
                    del remaining[lookup]
                    done += 1
        return LookupEngineResult(
            lookups=lookups,
            cycles=now,
            visits_per_lookup=self.visits,
            max_outstanding=self.window,
        )

    # ------------------------------------------------------------------
    def bound_cycles_per_lookup(self) -> float:
        """Closed-form steady-state cost per lookup.

        A lookup's critical path is ``visits x (issue + latency)``; with
        ``W`` chains interleaved the processor amortizes it W-fold, but
        can never beat the issue bandwidth (``visits x issue``):

            max(visits*(issue+latency)/W, visits*issue)
        """
        serial = self.visits * (self.issue + self.latency)
        issue_bound = self.visits * self.issue
        return max(serial / self.window, issue_bound)

    def speedup_over_blocking(self) -> float:
        blocking = LookupEngine(
            self.visits, self.latency, self.issue, max_outstanding=1
        )
        return (
            blocking.bound_cycles_per_lookup() / self.bound_cycles_per_lookup()
        )
