"""``python -m repro top``: a live terminal view of a running capture.

``repro trace`` renders a capture after the run; ``repro top`` watches
one *while it executes*.  The experiment runs in a background thread
with telemetry enabled and the foreground loop re-renders a table every
``--interval`` seconds: per-stage journey latency (p50/p99), per-port
and per-class latency dimensions, and -- for distributed space runs --
one row per worker built from the live telemetry states the workers
stream back between token-window rounds.

Two sources feed the table:

* **Local engines** (router/fabric/wordlevel, or space with one
  partition) record into the process-global recorder, which the render
  loop reads directly -- histograms and counters are plain ints, so a
  concurrent read is safe and at worst one sample stale.
* **Distributed space runs** stream whole worker states over their
  result pipes (:func:`~repro.parallel.space_shard.run_space`'s
  ``on_snapshot``).  The collector keeps the latest state per worker
  and each frame folds them into a scratch
  :class:`~repro.telemetry.runtime.Telemetry` -- the same associative
  merge the end-of-run path uses, so the live view and the final table
  agree by construction.

``--frames N`` and ``--once`` exist for scripting/CI: a bounded number
of refreshes, or no live rendering at all (one final table, no ANSI).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.engines import run_config

from . import runtime
from .export import render_dim_table, render_stage_table

#: ANSI: clear screen, cursor home (the classic ``top`` refresh).
CLEAR = "\x1b[2J\x1b[H"


class SnapCollector:
    """Keeps the latest streamed telemetry state per worker.

    Each worker's snap *replaces* its previous one (states are
    cumulative, not deltas), so folding the latest set yields a
    consistent point-in-time view of the whole fleet.
    """

    def __init__(self):
        self._states: Dict[int, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def __call__(self, part_id: int, state: Dict[str, Any]) -> None:
        with self._lock:
            self._states[part_id] = state

    @property
    def seen(self) -> int:
        with self._lock:
            return len(self._states)

    def merged(self) -> Optional[runtime.Telemetry]:
        """Fold the latest per-worker states into a scratch recorder."""
        with self._lock:
            states = [self._states[w] for w in sorted(self._states)]
        if not states:
            return None
        tel = runtime.Telemetry()
        for state in states:
            tel.merge_state(state)
        tel.journeys.finalize()
        return tel


def render_worker_table(tel: runtime.Telemetry) -> str:
    """One row per merged worker: progress meta plus its shipped
    ``w{n}.``-prefixed gauges (delivered words/packets, blocked)."""
    if not tel.workers:
        return ""
    lines = [
        "workers",
        f"{'worker':<8}{'meta':<34}{'pkts':>10}{'words':>12}{'blocked':>9}",
    ]
    for w in sorted(tel.workers):
        meta = tel.workers[w]
        desc = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        pkts = tel.registry.read_gauge(f"w{w}.space.delivered_packets")
        words = tel.registry.read_gauge(f"w{w}.space.delivered_words")
        blocked = tel.registry.read_gauge(f"w{w}.space.blocked_events")
        lines.append(
            f"{w:<8}{desc[:33]:<34}"
            f"{pkts if pkts is not None else '-':>10}"
            f"{words if words is not None else '-':>12}"
            f"{blocked if blocked is not None else '-':>9}"
        )
    return "\n".join(lines)


def render_top(tel: runtime.Telemetry, title: str, elapsed: float,
               final: bool = False) -> str:
    """The full ``repro top`` frame for one recorder."""
    j = tel.journeys
    state = "final" if final else "live"
    lines: List[str] = [
        f"repro top -- {title} [{state}, {elapsed:.1f}s] "
        f"{j.completed} delivered / {j.dropped} dropped / "
        f"{j.in_flight} in flight",
        "",
        render_stage_table(tel),
    ]
    for dim in ("class", "port"):
        table = render_dim_table(tel, dim)
        if table:
            lines.append("")
            lines.append(table)
    workers = render_worker_table(tel)
    if workers:
        lines.append("")
        lines.append(workers)
    return "\n".join(lines)


def main(args) -> int:
    """Entry point behind ``python -m repro top``."""
    from .traced import DEFAULT_SNAPSHOT_INTERVAL, SPECS, _configure

    name = args.experiment
    if name not in SPECS:
        print(f"unknown experiment {name!r}; expected one of {tuple(SPECS)}",
              file=sys.stderr)
        return 2
    spec = SPECS[name]
    engine = getattr(args, "engine", None)
    partitions = getattr(args, "partitions", None)
    try:
        config, workload = _configure(spec, args.seed, args.quick, None,
                                      engine, partitions)
    except (TypeError, ValueError) as exc:
        print(f"cannot configure {name}: {exc}", file=sys.stderr)
        return 2

    collector = SnapCollector()
    box: Dict[str, Any] = {}

    def _run() -> None:
        with runtime.capture(
            snapshot_interval=DEFAULT_SNAPSHOT_INTERVAL
        ) as tel:
            box["tel"] = tel
            try:
                if config.fidelity == "space":
                    from repro.engines import SpaceEngine

                    eng = SpaceEngine(config)
                    eng.on_snapshot = collector
                    box["result"] = eng.run(workload)
                else:
                    box["result"] = run_config(config, workload)
            except BaseException as exc:  # rendered by the foreground loop
                box["error"] = exc

    worker = threading.Thread(target=_run, daemon=True, name="repro-top-run")
    t0 = time.perf_counter()
    worker.start()
    frames = 0
    max_frames = getattr(args, "frames", 0) or 0
    live = not getattr(args, "once", False)
    try:
        while worker.is_alive():
            worker.join(timeout=max(0.05, args.interval))
            if not live or (max_frames and frames >= max_frames):
                continue
            tel = collector.merged() or box.get("tel")
            if tel is None:
                continue
            frames += 1
            sys.stdout.write(
                CLEAR + render_top(tel, name, time.perf_counter() - t0) + "\n"
            )
            sys.stdout.flush()
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130
    elapsed = time.perf_counter() - t0
    if "error" in box:
        print(f"run failed: {box['error']}", file=sys.stderr)
        return 1
    tel = box.get("tel")
    if tel is None:  # pragma: no cover - thread never started the capture
        print("no telemetry captured", file=sys.stderr)
        return 1
    out = render_top(tel, name, elapsed, final=True)
    sys.stdout.write((CLEAR if live and frames else "") + out + "\n")
    result = box.get("result")
    if result is not None:
        print(f"\n{name}: {result.gbps:.3f} Gbps, "
              f"{result.delivered_packets} packets in {result.cycles} cycles")
    return 0
