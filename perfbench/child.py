"""One measurement in a fresh interpreter (started by ``run.py``).

    python3 perfbench/child.py setup|run|trace WORKLOAD SEED SECONDS [SPANS_OUT]

``setup`` times ``import repro`` plus a first small engine call; ``run``
times back-to-back engine calls for SECONDS with tracing off; ``trace``
alternates untraced and traced calls for SECONDS and derives the
per-layer metrics from the spans.  Each mode prints one JSON line.
Every engine call is an operation: it fails if it raises or if its
output check fails.

Only ``sys`` and ``time`` are imported at module level, so that the
set-up clock starts before anything else loads; each mode imports what
it uses where it uses it.
"""

import sys
import time

#: Taken before any other import: ``setup`` mode counts every module a
#: user's process would load from here on, the benchmark's few included.
T0 = time.perf_counter()

#: Fewest timed calls per run (per call kind in ``trace``).
MIN_CALLS = 3


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, label, fn, check):
        """``(result, seconds)`` of ``fn()``; ``check(result)`` lists problems."""
        self.attempted += 1
        result, seconds = None, 0.0
        try:
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
            problems = check(result)
        except Exception as exc:  # an operation that raises is a failed one
            import traceback

            problems = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            del self.problems[5:]
        return result, seconds

    def to_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems}


def setup(name, seed):
    """From :data:`T0` to the end of a first small engine call."""
    from workloads import WORKLOADS

    import repro  # noqa: F401  (the import users pay once per process)

    imported = time.perf_counter()
    wl = WORKLOADS[name]
    tally = Tally()
    tally.op("first call", lambda: wl.call(wl.inputs(seed, small=True)), wl.check)
    done = time.perf_counter()
    return dict(tally.to_dict(), import_s=imported - T0,
                first_call_s=done - imported, modules=len(sys.modules))


def _repeat_checker(wl, first):
    expected = None if first is None else wl.fingerprint(first)

    def check(result):
        problems = wl.check(result)
        if wl.fingerprint(result) != expected:
            problems.append("simulated stats differ from the warm-up call's")
        return problems

    return check


def _timed_calls(wl, kinds, seconds, tally, tracer=None, note=lambda r: None):
    """Round-robin over ``kinds`` (``(name, inputs, check)``; names ending
    in ``traced`` run with the layers wrapped) for ``seconds``.

    Each call is timed raw and at nominal host speed (scaled by the
    reference timed between calls).  Returns per kind: ``raw`` and
    ``scaled`` seconds, ``notes`` (``note(result)`` per call; results
    themselves are dropped so they cannot inflate peak memory), and for
    traced kinds the summed span ``totals`` and boundary ``counts``."""
    import gc

    from calib import reference, scaled

    out = {k: {"raw": [], "scaled": [], "notes": [], "totals": {}, "counts": {}}
           for k, _, _ in kinds}
    gc.collect()
    ref_before = reference()
    end = time.perf_counter() + seconds
    while len(out[kinds[0][0]]["raw"]) < MIN_CALLS or time.perf_counter() < end:
        for kind, inputs, check in kinds:
            acc = out[kind]
            call = lambda: wl.call(inputs)  # noqa: E731
            traced = kind.endswith("traced")
            if traced:
                from spans import install_layers

                mark, counts_before = tracer.mark(), dict(tracer.counts)
                install_layers(tracer)
                call = tracer.span("engine", call)
            gc.collect()
            try:
                result, dt = tally.op(kind, call, check)
            finally:
                if traced:
                    tracer.unpatch()
            acc["notes"].append(note(result))
            del result
            gc.collect()
            ref_after = reference()
            acc["raw"].append(dt)
            acc["scaled"].append(scaled(dt, ref_before, ref_after))
            ref_before = ref_after
            if traced:
                for name, t in tracer.totals(mark).items():
                    total = acc["totals"].setdefault(name, dict.fromkeys(t, 0))
                    for key, val in t.items():
                        total[key] += val
                for key, val in tracer.counts.items():
                    acc["counts"][key] = (acc["counts"].get(key, 0)
                                          + val - counts_before.get(key, 0))
    return out


def run(wl, seed, seconds):
    import resource

    inputs = wl.inputs(seed)
    tally = Tally()
    # Warm-up: lazy imports and one-time tables, which set-up already counts.
    first, _ = tally.op("warm-up", lambda: wl.call(inputs), wl.check)
    timed = _timed_calls(
        wl, [("plain", inputs, _repeat_checker(wl, first))], seconds, tally)["plain"]
    # Peaks of the workload alone: read before the reference checks run.
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    workers = 0
    if first is not None:
        for label, fn in wl.reference_checks(inputs, first, seed):
            tally.op(label, fn, lambda problems: problems)
        info = getattr(first, "extra", {}).get("space_shard")
        if info is not None and not info["serial_fallback"]:
            workers = info["workers"]
    return dict(
        tally.to_dict(),
        samples=timed["raw"],
        scaled_samples=timed["scaled"],
        workers=workers,
        own_rss_mb=own_rss_mb,
        worker_rss_mb=worker_rss_mb,
        outputs=wl.outputs(first) if first is not None else {},
    )


def trace(wl, seed, seconds, spans_out):
    from spans import Tracer

    inputs = wl.inputs(seed)
    tally = Tally()
    first, _ = tally.op("warm-up", lambda: wl.call(inputs), wl.check)
    check = _repeat_checker(wl, first)
    kinds = [("plain", inputs, check)]
    if wl.engine == "space":
        # Spans taken in worker processes could not reach this one, so the
        # layers are traced on the in-process partitions=1 reference, which
        # is also the speed-up denominator.
        serial = (inputs[0].replace(partitions=1), inputs[1])
        kinds += [("serial", serial, check), ("serial_traced", serial, check)]
    else:
        kinds += [("traced", inputs, check)]

    def note(result):
        if result is None:
            return None
        if wl.engine == "worlds":
            return result.vectorized
        return result.extra.get("space_shard")

    tracer = Tracer()
    timed = _timed_calls(wl, kinds, seconds, tally, tracer, note)
    tracer.write(spans_out)
    return dict(tally.to_dict(), metrics=_layer_metrics(wl, timed),
                calls={k: len(v["raw"]) for k, v in timed.items()})


def _layer_metrics(wl, timed):
    """The per-layer metrics from the traced calls' spans and counts."""
    import statistics

    med = statistics.median
    # The traced calls and the untraced calls they are compared with.
    if wl.engine == "space":
        traced, untraced = timed["serial_traced"], timed["serial"]
    else:
        traced, untraced = timed["traced"], timed["plain"]
    spans, counts, calls = traced["totals"], traced["counts"], len(traced["raw"])

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def share(name, key="busy_s"):
        return get(name, key) / spans["engine"]["busy_s"]

    def per_call(n):
        return n // calls if n % calls == 0 else n / calls

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "allocator.calls": per_call(get("allocator", "calls")),
        "allocator.busy_share": share("allocator"),
        "allocator.grant_ratio": ratio(counts.get("allocator.grants", 0),
                                       counts.get("allocator.requests", 0)),
        "allocator.cache_hit_rate": ratio(counts.get("allocator.cache_hits", 0),
                                          get("allocator", "calls")),
        "traffic.draws": per_call(get("traffic", "calls")),
        "traffic.busy_share": share("traffic"),
        "fabric.self_share": share("fabric", "self_s"),
        "kernel.events": per_call(counts.get("kernel.events", 0)),
        "kernel.self_share": share("kernel", "self_s"),
        "ip.lookups": per_call(get("ip", "calls")),
        "ip.busy_share": share("ip"),
    }
    space = dict.fromkeys(
        ("space.workers", "space.rounds", "space.boundary_flits", "space.bytes_moved",
         "space.coalesced_share", "space.stall_share", "space.fallbacks",
         "space.speedup_vs_serial"), 0)
    plain = timed["plain"]
    if wl.engine == "space":
        runs = [(i, dt) for i, dt in zip(plain["notes"], plain["raw"]) if i is not None]
        first = runs[0][0]
        space.update({
            "space.workers": first["workers"],
            "space.rounds": first["rounds"],
            "space.boundary_flits": sum(first["boundary_flits"]),
            "space.bytes_moved": sum(first["bytes_moved"]),
            "space.coalesced_share": med(
                [sum(i["coalesced_rounds"]) / sum(i["windows_per_worker"]) for i, _ in runs]),
            "space.stall_share": med(
                [sum(i["pipe_stall_s"]) / (i["workers"] * dt) for i, dt in runs]),
            "space.fallbacks": sum(i["serial_fallback"] for i, _ in runs) / len(runs),
            "space.speedup_vs_serial": med(timed["serial"]["scaled"]) / med(plain["scaled"]),
        })
    m.update(space)
    worlds = {"worlds.grants_share": 0.0, "worlds.draw_share": 0.0, "worlds.fallbacks": 0}
    if wl.engine == "worlds":
        vectorized = [v for v in plain["notes"] + traced["notes"] if v is not None]
        worlds = {
            "worlds.grants_share": share("worlds.grants"),
            "worlds.draw_share": share("worlds.draw"),
            "worlds.fallbacks": sum(not v for v in vectorized) / len(vectorized),
        }
    m.update(worlds)
    m["trace.overhead"] = med(traced["scaled"]) / med(untraced["scaled"]) - 1
    return m


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "setup":
        out = setup(name, seed)
    else:
        from workloads import WORKLOADS

        wl = WORKLOADS[name]
        out = run(wl, seed, seconds) if mode == "run" else trace(wl, seed, seconds, argv[4])
    import json

    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
