"""Exporters: Chrome-trace/Perfetto JSON and terminal tables.

The Chrome trace format (``chrome://tracing`` / https://ui.perfetto.dev)
is a JSON object with a ``traceEvents`` list.  We map one simulated cycle
to one microsecond of trace time, model router ports and the fabric as
tracks (process/thread metadata events), render packet journeys as async
spans (``b``/``e`` pairs keyed by journey id) with per-stage complete
(``X``) slices, and low-frequency events (crossbar reconfigurations,
token passes, faults, drops) as instants.

Exported JSON never contains wall-clock-derived values: two runs with the
same seed must serialize byte-identically (the golden exporter test and
``repro trace --check`` both rely on this).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .events import (
    EV_FAULT_INJECT,
    EV_FAULT_RECOVER,
    EV_LINK_DOWN,
    EV_LINK_UP,
    EV_PKT_DROP,
    EV_TOKEN_PASS,
    EV_TOKEN_RESET,
    EV_XBAR_CONFIG,
    KIND_NAMES,
)
from .journey import STAGES
from .runtime import Telemetry

TRACE_SCHEMA = "repro-chrome-trace/1"

PID_ROUTER = 1
TID_FABRIC = 100
TID_FAULTS = 101
#: Worker ``w``'s merged telemetry renders as process ``1000 + w`` so
#: distributed captures show one track group per worker.
PID_WORKER_BASE = 1000

#: Event kinds rendered as instant marks on the fabric/fault tracks.
_INSTANT_KINDS = {
    EV_XBAR_CONFIG: TID_FABRIC,
    EV_TOKEN_PASS: TID_FABRIC,
    EV_TOKEN_RESET: TID_FABRIC,
    EV_FAULT_INJECT: TID_FAULTS,
    EV_FAULT_RECOVER: TID_FAULTS,
    EV_LINK_DOWN: TID_FAULTS,
    EV_LINK_UP: TID_FAULTS,
    EV_PKT_DROP: TID_FAULTS,
}

#: Cap instant events in the export so huge runs stay loadable.
MAX_INSTANTS = 20000


def _meta(pid: int, tid: Optional[int], key: str, name: str) -> Dict[str, Any]:
    ev: Dict[str, Any] = {
        "ph": "M", "pid": pid, "name": key, "args": {"name": name},
    }
    if tid is not None:
        ev["tid"] = tid
    return ev


def chrome_trace(tel: Telemetry, title: str = "repro",
                 ports: int = 4) -> Dict[str, Any]:
    """Build a Chrome-trace document from a completed telemetry capture."""
    events: List[Dict[str, Any]] = []
    events.append(_meta(PID_ROUTER, None, "process_name", f"router:{title}"))
    for p in range(ports):
        events.append(_meta(PID_ROUTER, p, "thread_name", f"port {p}"))
    events.append(_meta(PID_ROUTER, TID_FABRIC, "thread_name", "fabric"))
    events.append(_meta(PID_ROUTER, TID_FAULTS, "thread_name", "faults/drops"))

    # One extra process track per merged worker recorder; its tagged
    # snapshots render as counters on that track.
    snap_workers = {
        s["worker"] for s in tel.registry.snapshots
        if s.get("worker") is not None
    }
    for w in sorted(set(tel.workers) | snap_workers):
        meta = tel.workers.get(w, {})
        label = f"worker {w}"
        if meta:
            label += " (" + ", ".join(
                f"{k}={v}" for k, v in sorted(meta.items())
            ) + ")"
        events.append(_meta(PID_WORKER_BASE + w, None, "process_name", label))

    body: List[Dict[str, Any]] = []

    # Journeys: async span per packet plus per-stage complete slices.
    for j in tel.journeys.detailed:
        tid = j.src if 0 <= j.src < ports else 0
        name = f"pkt j{j.jid} {j.src}->{j.dst}"
        args = {
            "jid": j.jid, "src": j.src, "dst": j.dst,
            "size_bytes": j.size_bytes, "outcome": j.outcome,
            "hops": j.hops,
        }
        body.append({
            "ph": "b", "cat": "journey", "id": j.jid, "name": name,
            "pid": PID_ROUTER, "tid": tid, "ts": j.arrive, "args": args,
        })
        body.append({
            "ph": "e", "cat": "journey", "id": j.jid, "name": name,
            "pid": PID_ROUTER, "tid": tid, "ts": max(j.depart, j.arrive),
        })
        marks = dict(j.marks)
        bounds = [("ingress", j.arrive, marks.get("enqueue")),
                  ("fabric", marks.get("enqueue"), marks.get("last_hop")),
                  ("egress", marks.get("last_hop"),
                   j.depart if j.outcome == "delivered" else None)]
        for stage, start, end in bounds:
            if start is None or end is None or end < start:
                continue
            body.append({
                "ph": "X", "cat": "stage", "name": stage,
                "pid": PID_ROUTER, "tid": tid,
                "ts": start, "dur": end - start, "args": {"jid": j.jid},
            })

    # Low-frequency instants from the event ring.
    instants = 0
    for ev in tel.events.events():
        tid = _INSTANT_KINDS.get(ev.kind)
        if tid is None:
            continue
        if instants >= MAX_INSTANTS:
            break
        instants += 1
        args: Dict[str, Any] = {}
        if ev.subject:
            args["subject"] = ev.subject
        if ev.data is not None:
            args["data"] = ev.data
        if ev.origin:
            args["worker"] = ev.origin - 1
        body.append({
            "ph": "i", "cat": "event", "name": KIND_NAMES[ev.kind],
            "pid": PID_ROUTER, "tid": tid, "ts": ev.cycle, "s": "t",
            "args": args,
        })

    # Registry snapshots as counter tracks (numeric values only);
    # worker-tagged snapshots land on that worker's process track.
    for snap in tel.registry.snapshots:
        w = snap.get("worker")
        pid = PID_ROUTER if w is None else PID_WORKER_BASE + w
        for name, value in sorted(snap["values"].items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            body.append({
                "ph": "C", "cat": "metric", "name": name,
                "pid": pid, "ts": snap["cycle"],
                "args": {"value": value},
            })

    body.sort(key=lambda e: (e["ts"], e["ph"] != "b"))
    events.extend(body)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "title": title,
            "cycle_unit": "1 cycle == 1us trace time",
            "stage_histograms": {
                s: tel.journeys.stage_hist[s].to_dict() for s in STAGES
            },
            "kernel_profile": tel.kernel.to_dict(),
            "metrics": tel.registry.to_dict(),
            **(
                {
                    "dimensions": {
                        f"{d}:{l}": h.to_dict()
                        for (d, l), h in sorted(tel.journeys.dim_hist.items())
                    },
                    "workers": {
                        str(w): dict(m)
                        for w, m in sorted(tel.workers.items())
                    },
                }
                if tel.workers or tel.journeys.dim_hist
                else {}
            ),
        },
    }


def canonical(doc: Dict[str, Any]) -> str:
    """Canonical serialization used for determinism comparisons."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Return a list of schema problems; empty list means valid."""
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    last_ts: Optional[float] = None
    open_spans: Dict[Any, int] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if ph is None:
            problems.append(f"event {i} missing 'ph'")
            continue
        if "pid" not in ev or "name" not in ev:
            problems.append(f"event {i} ({ph}) missing pid/name")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            problems.append(f"event {i} ({ph}) missing numeric 'ts'")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {i}: ts {ts} not monotonic (prev {last_ts})"
            )
        last_ts = ts
        if ph == "X" and "dur" not in ev:
            problems.append(f"event {i}: X event missing 'dur'")
        elif ph in ("b", "e"):
            key = (ev.get("cat"), ev.get("id"))
            if key[1] is None:
                problems.append(f"event {i}: async event missing 'id'")
                continue
            if ph == "b":
                open_spans[key] = open_spans.get(key, 0) + 1
            else:
                n = open_spans.get(key, 0)
                if n <= 0:
                    problems.append(f"event {i}: 'e' without matching 'b' {key}")
                else:
                    open_spans[key] = n - 1
    for key, n in open_spans.items():
        if n:
            problems.append(f"async span {key} left open ({n} unmatched 'b')")
    return problems


# -- terminal rendering -------------------------------------------------

def render_stage_table(tel: Telemetry) -> str:
    """Per-stage latency table (cycles) from the journey histograms."""
    lines = [
        "stage latency (cycles)",
        f"{'stage':<9}{'count':>8}{'mean':>10}{'p50':>8}{'p99':>8}{'max':>8}",
    ]
    for stage in STAGES:
        h = tel.journeys.stage_hist[stage]
        lines.append(
            f"{stage:<9}{h.count:>8}{h.mean:>10.1f}"
            f"{h.percentile(50):>8}{h.percentile(99):>8}"
            f"{(h.max or 0):>8}"
        )
    jt = tel.journeys
    lines.append(
        f"journeys: {jt.completed} delivered, {jt.dropped} dropped, "
        f"{jt.in_flight} in flight"
    )
    return "\n".join(lines)


def render_dim_table(tel: Telemetry, dim: str) -> str:
    """Per-label journey-latency table for one dimension (``"port"`` or
    ``"class"``); empty string when the dimension has no samples."""
    rows = [
        (label, tel.journeys.dim_hist[(dim, label)])
        for label in tel.journeys.dim_labels(dim)
    ]
    if not rows:
        return ""
    lines = [
        f"{dim} journey latency (cycles)",
        f"{dim:<9}{'count':>8}{'mean':>10}{'p50':>8}{'p99':>8}{'max':>8}",
    ]
    for label, h in rows:
        lines.append(
            f"{label:<9}{h.count:>8}{h.mean:>10.1f}"
            f"{h.percentile(50):>8}{h.percentile(99):>8}"
            f"{(h.max or 0):>8}"
        )
    return "\n".join(lines)


def render_kernel_profile(tel: Telemetry, wall_s: Optional[float] = None,
                          sim_events: Optional[int] = None) -> str:
    """Kernel self-profile table; wall-clock figures stay terminal-only."""
    prof = tel.kernel
    mix = prof.burst_mix()
    lines = ["kernel self-profile"]
    if wall_s is not None and sim_events is not None and wall_s > 0:
        lines.append(
            f"  dispatch rate     : {sim_events / wall_s:>12,.0f} events/s"
            f"  ({sim_events:,} events in {wall_s:.3f}s)"
        )
    total_ops = mix["word_ops"] + mix["burst_ops"]
    if total_ops:
        pct = 100.0 * mix["burst_ops"] / total_ops
        lines.append(
            f"  channel op mix    : {mix['word_ops']:,} word / "
            f"{mix['burst_ops']:,} burst ({pct:.1f}% burst)"
        )
    lines.append(f"  timeouts          : {mix['timeouts']:,}")
    lines.append(
        f"  calendar buckets  : {prof.bucket_drains:,} drains, "
        f"mean occupancy {prof.mean_bucket_occupancy:.2f}, "
        f"peak bucket {prof.bucket_peak}, peak pending cycles {prof.slot_peak}"
    )
    return "\n".join(lines)
