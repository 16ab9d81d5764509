"""``python -m repro trace``: run a workload with telemetry enabled and
export the capture.

Unlike ``repro run`` (paper tables) and ``repro bench`` (wall clock),
``repro trace`` is the diagnosis tool: it renders a Chrome-trace/Perfetto
JSON of the run, a terminal per-stage latency table, and a kernel
self-profile, so a bench regression can be traced to the stage or kernel
path that caused it.

``--check`` is the CI gate: schema-validate the export, prove it is
deterministic across two same-seed runs, prove disabled-mode results are
bit-identical to the traced run, require at least one complete packet
journey, and bound the disabled-mode wall-clock overhead against the
``repro bench`` results file.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.config import SimConfig
from repro.engines import RunResult, SpaceEngine, WorkloadSpec, run_config

from . import runtime
from .export import (
    canonical,
    chrome_trace,
    render_kernel_profile,
    render_stage_table,
    validate_chrome_trace,
)
from .journey import STAGES

#: Schema tag on the ``--stats-out`` stage-latency document.
TRACE_STATS_SCHEMA = "repro-trace-stats/1"


@dataclass(frozen=True)
class TraceSpec:
    """A traceable workload: engine + full and quick budgets.

    ``config_overrides`` are extra :class:`SimConfig` fields the spec
    needs (e.g. the space spec's square port count); the CLI's
    ``--engine`` / ``--partitions`` flags override on top of them.
    """

    description: str
    fidelity: str
    workload: WorkloadSpec
    quick_workload: WorkloadSpec
    config_overrides: Tuple[Tuple[str, Any], ...] = ()


#: Experiments `repro trace` knows how to run.  ``fig7_1_peak`` is the
#: acceptance workload: the thesis's peak-throughput point (1024-byte
#: permutation traffic on the phase-level router).
SPECS: Dict[str, TraceSpec] = {
    "fig7_1_peak": TraceSpec(
        description="Fig 7-1 peak point: 1024B permutation on the router",
        fidelity="router",
        workload=WorkloadSpec(pattern="permutation", packet_bytes=1024,
                              packets=600),
        quick_workload=WorkloadSpec(pattern="permutation", packet_bytes=1024,
                                    packets=150),
    ),
    "fig7_1_avg": TraceSpec(
        description="Fig 7-1 average point: 1024B uniform on the router",
        fidelity="router",
        workload=WorkloadSpec(pattern="uniform", packet_bytes=1024,
                              packets=600),
        quick_workload=WorkloadSpec(pattern="uniform", packet_bytes=1024,
                                    packets=150),
    ),
    "fig7_3": TraceSpec(
        description="Fig 7-3 regime: word-level permutation run",
        fidelity="wordlevel",
        workload=WorkloadSpec(pattern="permutation", packet_bytes=1024,
                              cycles=30_000, warmup_cycles=0),
        quick_workload=WorkloadSpec(pattern="permutation", packet_bytes=1024,
                                    cycles=12_000, warmup_cycles=0),
    ),
    "scaling": TraceSpec(
        description="Space-partitioned Clos (distributed telemetry merge)",
        fidelity="space",
        workload=WorkloadSpec(pattern="permutation", packet_bytes=1024,
                              quanta=2000, warmup_quanta=200),
        quick_workload=WorkloadSpec(pattern="permutation", packet_bytes=1024,
                                    quanta=600, warmup_quanta=60),
        config_overrides=(("ports", 16),),
    ),
}

#: Default registry snapshot interval (cycles) for traced runs.
DEFAULT_SNAPSHOT_INTERVAL = 5000


def _spec_config(spec: TraceSpec, seed: int, engine: Optional[str],
                 partitions: Optional[int]) -> SimConfig:
    kwargs: Dict[str, Any] = dict(spec.config_overrides)
    kwargs["fidelity"] = engine or spec.fidelity
    if partitions is not None:
        kwargs["partitions"] = partitions
    return SimConfig(seed=seed, **kwargs)


def _spec_workload(spec: TraceSpec, quick: bool,
                   packets: Optional[int], engine: Optional[str]) -> WorkloadSpec:
    workload = spec.quick_workload if quick else spec.workload
    if packets is not None:
        if (engine or spec.fidelity) in ("wordlevel", "space"):
            raise ValueError(
                "--packets does not apply to cycle/quanta-budget engines"
            )
        workload = workload.replace(packets=packets)
    return workload


def _configure(spec: TraceSpec, seed: int, quick: bool,
               packets: Optional[int], engine: Optional[str],
               partitions: Optional[int]) -> Tuple[SimConfig, WorkloadSpec]:
    """The config and workload of one run, refused (``ValueError``)
    before anything starts when no engine could run them -- a space
    partition count the Clos cannot fill, say."""
    config = _spec_config(spec, seed, engine, partitions)
    workload = _spec_workload(spec, quick, packets, engine)
    if config.fidelity == "space":
        SpaceEngine(config)._spec(workload)
    return config, workload


def run_traced(
    name: str,
    quick: bool = False,
    packets: Optional[int] = None,
    seed: int = 0,
    snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
    engine: Optional[str] = None,
    partitions: Optional[int] = None,
) -> Tuple[RunResult, runtime.Telemetry, float]:
    """Run one spec with telemetry enabled; returns (result, tel, wall_s).

    Telemetry is enabled *before* the engine is built (engines capture
    the recorder at construction) and restored to its prior state after.
    ``engine`` / ``partitions`` override the spec's fidelity and worker
    count (the distributed plane: a space run with P > 1 merges every
    worker's recorder into the returned one).
    """
    spec = SPECS[name]
    workload = _spec_workload(spec, quick, packets, engine)
    config = _spec_config(spec, seed, engine, partitions)
    with runtime.capture(snapshot_interval=snapshot_interval) as tel:
        t0 = time.perf_counter()
        result = run_config(config, workload)
        wall = time.perf_counter() - t0
    return result, tel, wall


def run_plain(name: str, quick: bool = False,
              packets: Optional[int] = None, seed: int = 0,
              engine: Optional[str] = None,
              partitions: Optional[int] = None) -> RunResult:
    """Same workload with telemetry disabled (the bit-identity reference)."""
    spec = SPECS[name]
    workload = _spec_workload(spec, quick, packets, engine)
    config = _spec_config(spec, seed, engine, partitions)
    runtime.disable()
    return run_config(config, workload)


def _result_fingerprint(result: RunResult) -> Dict[str, Any]:
    """The fields that must be bit-identical with telemetry on or off."""
    return {
        "cycles": result.cycles,
        "delivered_packets": result.delivered_packets,
        "delivered_words": result.delivered_words,
        "gbps": result.gbps,
        "mpps": result.mpps,
        "per_port_packets": list(result.per_port_packets),
        "latency": dict(result.latency),
    }


def _check_overhead(bench_results: Optional[Path]) -> Tuple[bool, str]:
    """Disabled-mode overhead gate against the stored bench results.

    CI runs ``repro bench --quick`` earlier in the same job, so the
    stored ``kernel_bench.current.quick`` router timing is fresh and
    same-machine.  Re-time the router quick budget now (telemetry
    disabled) and require it within 5% plus an absolute noise floor.
    Skips (passes with a note) when no comparable reference exists.
    """
    from repro import bench

    path = bench_results if bench_results is not None else bench.DEFAULT_RESULTS_PATH
    data = bench.load_results(Path(path))
    kb = data.get("kernel_bench", {})
    ref = None
    for report in (
        kb.get("current", {}).get("quick"), kb.get("baseline", {}).get("quick")
    ):
        if isinstance(report, dict) and report.get("mode") == "quick":
            for row in report.get("runs", []):
                if row.get("engine") == "router" and row.get("wall_s"):
                    ref = row["wall_s"]
                    break
        if ref is not None:
            break
    if ref is None:
        return True, ("overhead: skipped (no quick-mode router timing in "
                      f"{path}; run `repro bench --quick` first)")
    runtime.disable()
    row = bench.bench_engine("router", mode="quick", repeats=3)
    wall = row["wall_s"]
    limit = ref * 1.05 + 0.25  # 5% plus an absolute floor for timer noise
    detail = f"disabled-mode wall {wall:.3f}s vs reference {ref:.3f}s (limit {limit:.3f}s)"
    if wall > limit:
        return False, f"overhead: FAIL {detail}"
    return True, f"overhead: ok {detail}"


def _check(name: str, quick: bool, packets: Optional[int], seed: int,
           doc: Dict[str, Any], result: RunResult, tel: runtime.Telemetry,
           bench_results: Optional[Path],
           engine: Optional[str] = None,
           partitions: Optional[int] = None) -> int:
    failures = 0

    problems = validate_chrome_trace(doc)
    if problems:
        failures += 1
        print("schema: FAIL", file=sys.stderr)
        for p in problems[:20]:
            print(f"  {p}", file=sys.stderr)
    else:
        print(f"schema: ok ({len(doc['traceEvents'])} events)")

    result2, tel2, _ = run_traced(name, quick=quick, packets=packets, seed=seed,
                                  engine=engine, partitions=partitions)
    doc2 = chrome_trace(tel2, title=name,
                        ports=result2.config.ports if result2.config else 4)
    if canonical(doc) != canonical(doc2):
        failures += 1
        print("determinism: FAIL (same-seed runs exported different JSON)",
              file=sys.stderr)
    else:
        print("determinism: ok (two same-seed runs exported identical JSON)")

    plain = run_plain(name, quick=quick, packets=packets, seed=seed,
                      engine=engine, partitions=partitions)
    if _result_fingerprint(plain) != _result_fingerprint(result):
        failures += 1
        print("disabled-mode identity: FAIL (telemetry changed results)",
              file=sys.stderr)
    else:
        print("disabled-mode identity: ok (results bit-identical)")

    if tel.journeys.completed < 1 or not tel.journeys.detailed:
        failures += 1
        print("journeys: FAIL (no complete PacketJourney captured)",
              file=sys.stderr)
    else:
        print(f"journeys: ok ({tel.journeys.completed} complete, "
              f"{len(tel.journeys.detailed)} detailed)")

    ok, detail = _check_overhead(bench_results)
    print(detail, file=sys.stderr if not ok else sys.stdout)
    if not ok:
        failures += 1

    return 1 if failures else 0


def stage_stats(name: str, result: RunResult,
                tel: runtime.Telemetry) -> Dict[str, Any]:
    """The per-stage latency table as a schema-tagged JSON document
    (the ``--stats-out`` artifact; ``--baseline`` diffs two of these)."""
    stages = {}
    for s in STAGES:
        h = tel.journeys.stage_hist[s]
        stages[s] = {
            "count": h.count,
            "mean": h.mean,
            "p50": h.percentile(50),
            "p99": h.percentile(99),
            "max": h.max or 0,
        }
    return {
        "schema": TRACE_STATS_SCHEMA,
        "experiment": name,
        "gbps": result.gbps,
        "delivered_packets": result.delivered_packets,
        "cycles": result.cycles,
        "stages": stages,
    }


def diff_stage_stats(current: Dict[str, Any],
                     baseline: Dict[str, Any]) -> str:
    """Render a per-stage latency delta between two stage-stats docs,
    flagging the biggest relative mover."""
    for doc, label in ((current, "current"), (baseline, "baseline")):
        if doc.get("schema") != TRACE_STATS_SCHEMA:
            raise ValueError(
                f"{label} stats schema is {doc.get('schema')!r}, "
                f"expected {TRACE_STATS_SCHEMA!r}"
            )
    lines = [
        f"stage-latency diff vs baseline "
        f"({baseline.get('experiment', '?')}, "
        f"{baseline.get('delivered_packets', 0)} pkts)"
    ]
    biggest: Optional[Tuple[str, float]] = None
    for stage, cur in current.get("stages", {}).items():
        old = baseline.get("stages", {}).get(stage)
        if not old or not old.get("count") or not cur.get("count"):
            lines.append(f"  {stage:<9} (no overlap: missing samples)")
            continue
        delta = cur["mean"] - old["mean"]
        pct = 100.0 * delta / old["mean"] if old["mean"] else 0.0
        lines.append(
            f"  {stage:<9} mean {old['mean']:8.1f} -> {cur['mean']:8.1f} "
            f"cycles ({pct:+6.1f}%)   p99 {old['p99']:>6} -> {cur['p99']:>6}"
        )
        if stage != "total" and (biggest is None or abs(pct) > abs(biggest[1])):
            biggest = (stage, pct)
    if biggest is not None:
        direction = "slower" if biggest[1] > 0 else "faster"
        lines.append(
            f"  biggest mover: {biggest[0]} "
            f"({abs(biggest[1]):.1f}% {direction})"
        )
    return "\n".join(lines)


def main(args) -> int:
    """Entry point behind ``python -m repro trace``."""
    name = args.experiment
    if name not in SPECS:
        print(f"unknown trace experiment {name!r}; "
              f"expected one of {tuple(SPECS)}", file=sys.stderr)
        return 2
    snapshot_interval = (
        args.snapshot_interval
        if args.snapshot_interval is not None
        else DEFAULT_SNAPSHOT_INTERVAL
    )
    engine = getattr(args, "engine", None)
    partitions = getattr(args, "partitions", None)
    try:
        _configure(SPECS[name], args.seed, args.quick, args.packets, engine,
                   partitions)
    except (TypeError, ValueError) as exc:
        print(f"cannot configure {name}: {exc}", file=sys.stderr)
        return 2
    result, tel, wall = run_traced(
        name, quick=args.quick, packets=args.packets, seed=args.seed,
        snapshot_interval=snapshot_interval,
        engine=engine, partitions=partitions,
    )
    ports = result.config.ports if result.config else 4
    doc = chrome_trace(tel, title=name, ports=ports)

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {out} (open at https://ui.perfetto.dev)")

    stats = stage_stats(name, result, tel)
    if getattr(args, "stats_out", None):
        stats_path = Path(args.stats_out)
        stats_path.parent.mkdir(parents=True, exist_ok=True)
        stats_path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
        print(f"wrote {stats_path} (schema {TRACE_STATS_SCHEMA})")

    print(f"{name}: {result.gbps:.3f} Gbps, "
          f"{result.delivered_packets} packets in {result.cycles} cycles")
    if tel.workers:
        print(f"merged {len(tel.workers)} worker recorders "
              f"(workers {', '.join(str(w) for w in sorted(tel.workers))})")
    print()
    print(render_stage_table(tel))

    if getattr(args, "baseline", None):
        try:
            baseline = json.loads(Path(args.baseline).read_text())
            diff = diff_stage_stats(stats, baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot diff against {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        print()
        print(diff)
    print()
    sim_events = result.extra.get("kernel_events")
    print(render_kernel_profile(tel, wall_s=wall, sim_events=sim_events))

    if args.summary:
        print()
        fp = tel.summary().get("fabric_fast_path")
        if fp:
            print(f"fabric fast path: {fp['ff_quanta']} quanta fast-forwarded")
        print("event counts:")
        for kind, n in sorted(tel.events.counts_by_name().items()):
            print(f"  {kind:<16}{n:>10}")
        if tel.journeys.detailed:
            j = tel.journeys.detailed[0]
            print(f"journey j{j.jid}: port {j.src} -> {j.dst}, "
                  f"{j.size_bytes}B, {j.outcome} in {j.latency} cycles")
            for mark, cycle in j.marks:
                print(f"  {mark:<10}@ {cycle}")
        print("registry metrics: " + ", ".join(tel.registry.names()))

    if args.check:
        print()
        return _check(name, args.quick, args.packets, args.seed,
                      doc, result, tel,
                      Path(args.bench_results) if args.bench_results else None,
                      engine=engine, partitions=partitions)
    return 0
