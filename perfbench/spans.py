"""Outside-in tracing for the benchmark's traced run.

:class:`Tracer` wraps public functions of each layer from the outside
(nothing inside the program changes) and records one span per call --
name, start, end, parent and call id -- in flat in-memory arrays that
:meth:`Tracer.write` dumps when the benchmark ends.  A layer's self time
is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Counts taken at the same boundaries as the spans.
        self.counts: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------
    def _begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = _clock()
        self._stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call;
        ``after(result, *args)`` runs outside the span to take counts."""
        nid = self._nid(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installing -----------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------
    def mark(self) -> int:
        """A position in the span log; :meth:`totals` reads spans after it."""
        return len(self.start)

    def totals(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * (n - since)
        for i in range(since, n):
            p = self.parent[i]
            if p >= since:
                child[p - since] += self.end[i] - self.start[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(since, n):
            d = self.end[i] - self.start[i]
            t = out.setdefault(self.names[self.name_id[i]],
                               {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["busy_s"] += d
            t["self_s"] += d - child[i - since]
        return out

    def write(self, path: str) -> None:
        """All spans as tab-separated ``call_id parent name start end``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("call_id\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                        f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (the issue-named boundaries)."""
    # By module path: ``repro.traffic.build`` is shadowed on its package
    # by the function of the same name.
    _alloc, _fabricsim, _lookup, _worlds, _space, _kernel, _build, _twl = (
        importlib.import_module(f"repro.{m}") for m in (
            "core.allocator", "core.fabricsim", "ip.lookup", "parallel.manyworlds",
            "parallel.space_shard", "sim.kernel", "traffic.build", "traffic.workload"))

    def after_allocate(alloc, allocator, requests, token):
        tracer.count("allocator.requests", sum(r is not None for r in requests))
        tracer.count("allocator.grants", alloc.num_granted)

    def counted_allocate(fn):
        def allocate(self, requests, token):
            hits = self.cache_hits
            alloc = fn(self, requests, token)
            if self.cache_hits != hits:
                tracer.count("allocator.cache_hits")
            return alloc

        return allocate

    tracer.patch(_alloc.Allocator, "allocate", tracer.span(
        "allocator", counted_allocate(_alloc.Allocator.allocate), after_allocate))

    # The callable fabric_source returns: a FabricModelSource (counter
    # models; also what space partitions build) or a legacy closure.
    tracer.patch(_build.FabricModelSource, "__call__",
                 tracer.span("traffic", _build.FabricModelSource.__call__))
    original_source = _build.fabric_source

    def fabric_source(*args, **kwargs):
        src = original_source(*args, **kwargs)
        if isinstance(src, _build.FabricModelSource):
            return src  # its class method is already wrapped
        return tracer.span("traffic", src)

    tracer.patch(_build, "fabric_source", fabric_source)
    tracer.patch(_twl.PacketFactory, "from_workload",
                 tracer.span("traffic", _twl.PacketFactory.from_workload))
    tracer.patch(_lookup.RoutingTable, "lookup",
                 tracer.span("ip", _lookup.RoutingTable.lookup))
    tracer.patch(_fabricsim.FabricSimulator, "run",
                 tracer.span("fabric", _fabricsim.FabricSimulator.run))

    def kernel_run(fn):
        def run(self, *args, **kwargs):
            events = self.events_processed
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.count("kernel.events", self.events_processed - events)

        return run

    tracer.patch(_kernel.Simulator, "run",
                 tracer.span("kernel", kernel_run(_kernel.Simulator.run)))
    tracer.patch(_alloc.CompiledAllocator, "batch_grants",
                 tracer.span("worlds.grants", _alloc.CompiledAllocator.batch_grants))
    tracer.patch(_worlds.VecSpecModel, "poll",
                 tracer.span("worlds.draw", _worlds.VecSpecModel.poll))
    tracer.patch(_space, "run_space", tracer.span("space", _space.run_space))
    tracer.patch(_worlds, "run_worlds", tracer.span("worlds", _worlds.run_worlds))
