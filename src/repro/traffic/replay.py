"""Trace-driven traffic: stream flow records from disk, never materialized.

A trace is a sequence of *flow records* -- ``(src, dst, bytes, count)``:
``count`` packets of ``bytes`` bytes from input ``src`` to output
``dst``.  Two formats, chosen by extension:

``.csv``
    Header ``src,dst,bytes,count`` (``count`` optional, default 1),
    one record per line.
``.jsonl``
    One JSON object per line: ``{"src": 0, "dst": 2, "bytes": 576,
    "count": 12}``.

:class:`TraceReplay` implements the
:class:`~repro.traffic.model.TrafficModel` protocol by streaming the
file: records are read lazily as ports consume them and buffered
per-port, so a multi-gigabyte trace costs O(buffered records) memory,
not O(file).  The stream position and buffers are a pure function of
the per-port consumed-packet counts (records are read in file order,
each pulled only when some port's buffer runs dry), so every port sees
the same packet sequence however polls on different ports interleave --
which is what lets the space engine split a trace's ports across
partitions.

``python -m repro replay TRACE --check`` is the CI smoke: the bundled
trace through the fabric engine (twice, for determinism), the space
engine (two partitions against one, for trace ports ``k*k``), and the
word-level engine, writing a stats artifact.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

REPLAY_STATS_SCHEMA = "repro-replay-stats/2"

#: A parsed flow record: (src port, dst port, packet bytes, packet count).
FlowRecord = Tuple[int, int, int, int]


def _parse_csv_line(line: str, lineno: int) -> Optional[FlowRecord]:
    parts = [p.strip() for p in line.split(",")]
    if not parts or parts[0] in ("", "src"):
        return None  # blank line or header
    try:
        src, dst, nbytes = int(parts[0]), int(parts[1]), int(parts[2])
        count = int(parts[3]) if len(parts) > 3 and parts[3] else 1
    except (ValueError, IndexError):
        raise ValueError(f"trace line {lineno}: malformed CSV record {line!r}")
    return src, dst, nbytes, count


def _parse_jsonl_line(line: str, lineno: int) -> Optional[FlowRecord]:
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
        return (
            int(obj["src"]),
            int(obj["dst"]),
            int(obj["bytes"]),
            int(obj.get("count", 1)),
        )
    except (ValueError, KeyError, TypeError):
        raise ValueError(f"trace line {lineno}: malformed JSONL record {line!r}")


def iter_flows(path: str) -> Iterator[FlowRecord]:
    """Stream flow records from a trace file, one at a time."""
    parse = _parse_jsonl_line if path.endswith(".jsonl") else _parse_csv_line
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            rec = parse(line, lineno)
            if rec is not None:
                yield rec


class TraceReplay:
    """Replay a recorded trace as a TrafficModel.

    ``loop`` wraps to the top of the file at EOF -- required by
    saturated-only engines (word level); without it an exhausted trace
    returns None forever and the fabric engine idles out the budget.
    """

    deterministic = False

    def __init__(self, path: str, n: int, loop: bool = False):
        if n < 1:
            raise ValueError("need at least one port")
        if not os.path.exists(path):
            raise FileNotFoundError(f"trace file not found: {path}")
        self.path = path
        self.n = n
        self.loop = loop
        self._buffers: List[Deque[Tuple[int, int, int]]] = [deque() for _ in range(n)]
        self._stream: Optional[Iterator[FlowRecord]] = None

    def _validated(self, rec: FlowRecord) -> Tuple[int, int, int, int]:
        src, dst, nbytes, count = rec
        if not 0 <= src < self.n:
            raise ValueError(
                f"trace record src port {src} out of range for {self.n} ports"
            )
        if not 0 <= dst < self.n:
            raise ValueError(
                f"trace record dst port {dst} out of range for {self.n} ports"
            )
        if nbytes < 20 or nbytes % 4:
            raise ValueError(
                f"trace record size {nbytes}B: sizes must be word-aligned "
                "and at least an IP header"
            )
        if count < 1:
            raise ValueError(f"trace record count {count} must be >= 1")
        return src, dst, nbytes, count

    def _pull(self, port: int) -> bool:
        """Read records until ``port`` has one buffered; False at EOF."""
        if self._stream is None:
            self._stream = iter_flows(self.path)
        wrapped = False
        while not self._buffers[port]:
            rec = next(self._stream, None)
            if rec is None:
                # A second EOF within one pull means a whole pass added
                # nothing for this port: stop rather than loop forever.
                if not self.loop or wrapped:
                    return False
                wrapped = True
                self._stream = iter_flows(self.path)
                continue
            src, dst, nbytes, count = self._validated(rec)
            self._buffers[src].append((dst, nbytes, count))
        return True

    # -- the TrafficModel protocol --------------------------------------
    def next_packet(self, port: int) -> Optional[Tuple[int, int]]:
        if not self._pull(port):
            return None
        dst, nbytes, remaining = self._buffers[port][0]
        if remaining <= 1:
            self._buffers[port].popleft()
        else:
            self._buffers[port][0] = (dst, nbytes, remaining - 1)
        return dst, nbytes

    @property
    def num_ports(self) -> int:
        return self.n


def scan_trace(path: str) -> Dict[str, Any]:
    """One streaming pass: record/packet/byte totals and the port span."""
    records = packets = total_bytes = 0
    max_port = 0
    for src, dst, nbytes, count in iter_flows(path):
        records += 1
        packets += count
        total_bytes += nbytes * count
        max_port = max(max_port, src, dst)
    return {
        "records": records,
        "packets": packets,
        "bytes": total_bytes,
        "ports": max_port + 1,
    }


# ---------------------------------------------------------------------------
# ``python -m repro replay``: the workload-replay smoke.
# ---------------------------------------------------------------------------
def _space_identity(traffic, ports: int, quanta: int,
                    seed: int) -> Dict[str, Any]:
    """Run ``traffic`` through the space engine at two partitions and at
    one; the two must agree field for field.  The Clos needs ``k*k``
    external ports, so other trace widths record the check as skipped."""
    import dataclasses
    import math

    from repro.parallel.space_shard import SpaceSpec, run_space
    from repro.traffic.build import shard_source

    k = math.isqrt(ports)
    if k < 2 or k * k != ports:
        return {
            "space_match": None,
            "skipped": f"trace spans {ports} ports; the space engine "
            "needs k*k ports with k >= 2",
        }
    spec = SpaceSpec(
        k=k,
        partitions=2,
        source=SpaceSpec.pack_source(shard_source(traffic, seed=seed)),
        quanta=quanta,
        warmup_quanta=0,
    )
    one, _ = run_space(dataclasses.replace(spec, partitions=1))
    two, info = run_space(spec)
    return {
        "k": k,
        "partitions": info.workers,
        "serial_fallback": info.serial_fallback,
        "delivered_packets": two.delivered_packets,
        "gbps": two.gbps,
        "space_match": one.counters() == two.counters(),
        "skipped": None,
    }


def run_replay(
    trace: str,
    quanta: int = 600,
    cycles: int = 24_000,
    seed: int = 0,
    check: bool = False,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run ``trace`` through the fabric, space and word-level engines.

    Returns ``(stats document, problems)``; with ``check`` the caller
    exits nonzero on problems.  The fabric run goes twice (the two must
    match: determinism), the space engine at two partitions against one
    (they must match field for field), and the word-level engine with
    the trace looped (that model is saturated-only).
    """
    from repro.config import SimConfig
    from repro.engines import WordLevelEngine, WorkloadSpec, run_config
    from repro.traffic.spec import TrafficSpec

    info = scan_trace(trace)
    ports = max(info["ports"], 2)
    traffic = TrafficSpec(kind="replay", trace=trace)
    fabric_cfg = SimConfig(ports=ports, seed=seed)
    workload = WorkloadSpec(traffic=traffic, quanta=quanta, warmup_quanta=0)
    serial = run_config(fabric_cfg, workload).to_dict()
    serial2 = run_config(fabric_cfg, workload).to_dict()
    space = _space_identity(traffic, ports, quanta, seed)

    problems: List[str] = []
    if serial != serial2:
        problems.append("fabric determinism: two same-trace runs differ")
    if serial["delivered_packets"] < 1:
        problems.append("fabric run delivered no packets from the trace")
    if space["space_match"] is False:
        problems.append(
            "space identity: partitions=2 stats differ from partitions=1"
        )
    if space.get("serial_fallback"):
        problems.append("space identity: partitions=2 fell back to serial")

    doc: Dict[str, Any] = {
        "schema": REPLAY_STATS_SCHEMA,
        "trace": trace,
        "scan": info,
        "fabric": {
            "quanta": quanta,
            "delivered_packets": serial["delivered_packets"],
            "delivered_words": serial["delivered_words"],
            "gbps": serial["gbps"],
        },
        "space": space,
    }

    if ports == 4:
        wl = WordLevelEngine(SimConfig(fidelity="wordlevel", seed=seed)).run(
            WorkloadSpec(
                traffic=TrafficSpec(kind="replay", trace=trace, loop=True),
                cycles=cycles,
                warmup_cycles=0,
            )
        )
        doc["wordlevel"] = {
            "cycles": wl.cycles,
            "delivered_packets": wl.delivered_packets,
            "gbps": wl.gbps,
            "payload_errors": wl.extra.get("payload_errors", 0),
        }
        if wl.delivered_packets < 1:
            problems.append("wordlevel run delivered no packets from the trace")
        if wl.extra.get("payload_errors", 0):
            problems.append(
                f"wordlevel payload errors: {wl.extra['payload_errors']}"
            )
    else:
        doc["wordlevel"] = None  # the word-level model is fixed at 4 ports

    doc["problems"] = problems
    return doc, problems


def main(args) -> int:
    """Entry point behind ``python -m repro replay``."""
    import sys

    doc, problems = run_replay(
        args.trace,
        quanta=args.quanta,
        cycles=args.cycles,
        seed=args.seed,
        check=args.check,
    )
    scan = doc["scan"]
    print(
        f"{args.trace}: {scan['records']} flows, {scan['packets']} packets, "
        f"{scan['ports']} ports"
    )
    fab = doc["fabric"]
    print(
        f"fabric: {fab['delivered_packets']} pkts in {fab['quanta']} quanta, "
        f"{fab['gbps']:.3f} Gbps"
    )
    space = doc["space"]
    if space["skipped"]:
        print(f"space: skipped ({space['skipped']})")
    else:
        print(
            f"space: k={space['k']} Clos, {space['delivered_packets']} pkts, "
            f"{space['gbps']:.3f} Gbps, partitions=2 "
            f"{'== partitions=1' if space['space_match'] else 'MISMATCH'}"
        )
    if doc.get("wordlevel"):
        wl = doc["wordlevel"]
        print(
            f"wordlevel: {wl['delivered_packets']} pkts in {wl['cycles']} "
            f"cycles, {wl['gbps']:.3f} Gbps"
        )
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.stats_out}")
    for p in problems:
        print(f"replay check failed: {p}", file=sys.stderr)
    if args.check:
        if problems:
            return 1
        print(
            "replay check ok: deterministic"
            + ("" if space["skipped"] else ", partitions=2 == partitions=1")
        )
    return 0
