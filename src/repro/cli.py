"""Command-line interface: regenerate any paper artifact from a shell.

::

    python -m repro list                 # what can be regenerated
    python -m repro run fig7_1_peak      # one experiment, full budget
    python -m repro run table6_1 --quick # reduced budget
    python -m repro all --quick          # everything
    python -m repro sweep --grid ports=4 quantum=256,512,1024 --workers 4

Benchmark timing is pytest-benchmark's job; this entry point is for
humans who want the tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Tuple

from repro.experiments import (
    ablations,
    claims_ch2,
    compute_ext,
    fairness_qos,
    fig5_1,
    fig7_1,
    fig7_3,
    load_latency,
    lookup_ext,
    multicast_ext,
    multichip,
    resilience,
    scaling,
    table6_1,
)

#: name -> (description, full-budget runner, quick-budget runner)
REGISTRY: Dict[str, Tuple[str, Callable, Callable]] = {
    "fig7_1_peak": (
        "Fig 7-1 top: peak throughput vs packet size vs Click",
        lambda: fig7_1.run_peak(quanta=2000, click_packets=2000),
        lambda: fig7_1.run_peak(quanta=500, click_packets=400),
    ),
    "fig7_1_avg": (
        "Fig 7-1 bottom: average throughput (uniform traffic)",
        lambda: fig7_1.run_average(quanta=5000, click_packets=2000),
        lambda: fig7_1.run_average(quanta=1200, click_packets=400),
    ),
    "fig7_3": (
        "Fig 7-3: per-tile utilization timelines (word-level)",
        fig7_3.run,
        fig7_3.run,
    ),
    "fig5_1": (
        "Fig 5-1: the worked Rotating Crossbar example",
        fig5_1.run,
        fig5_1.run,
    ),
    "table6_1": (
        "Table 6.1 / ch.6: configuration space + minimization",
        table6_1.run,
        table6_1.run,
    ),
    "abl_networks": (
        "Ablation: second static network (sections 5.3/8.1)",
        lambda: ablations.run_second_network(quanta=3000),
        lambda: ablations.run_second_network(quanta=800),
    ),
    "abl_quantum": (
        "Ablation: crossbar transfer-block size (section 4.3)",
        lambda: ablations.run_quantum_size(quanta=3000),
        lambda: ablations.run_quantum_size(quanta=800),
    ),
    "abl_pipelining": (
        "Ablation: header/body overlap (sections 5.2/6.5)",
        lambda: ablations.run_pipelining(quanta=3000),
        lambda: ablations.run_pipelining(quanta=800),
    ),
    "hol_voq": (
        "Ch.2 claim: FIFO HOL limit vs VOQ/iSLIP vs OQ",
        lambda: claims_ch2.run_hol_voq(slots=15000, warmup=1500),
        lambda: claims_ch2.run_hol_voq(ports=(4, 16), slots=5000, warmup=500),
    ),
    "cells": (
        "Ch.2 claim: fixed cells vs variable-length packets",
        lambda: claims_ch2.run_cells_vs_packets(slots=25000),
        lambda: claims_ch2.run_cells_vs_packets(slots=8000),
    ),
    "islip": (
        "iSLIP/PIM convergence with iterations",
        lambda: claims_ch2.run_islip_iterations(slots=12000, warmup=1200),
        lambda: claims_ch2.run_islip_iterations(slots=4000, warmup=400),
    ),
    "fairness": (
        "Section 5.4: starvation bound under a hotspot",
        lambda: fairness_qos.run_fairness(quanta=4000),
        lambda: fairness_qos.run_fairness(quanta=1200),
    ),
    "qos": (
        "Section 8.7: weighted-token bandwidth shares",
        lambda: fairness_qos.run_qos(quanta=6000),
        lambda: fairness_qos.run_qos(quanta=2000),
    ),
    "multicast": (
        "Section 8.6: fabric multicast vs ingress replication",
        lambda: multicast_ext.run(quanta=3000),
        lambda: multicast_ext.run(quanta=1000),
    ),
    "scaling": (
        "Section 8.5: N-port scaling (neighbor vs antipodal), space "
        "Clos to N=64",
        lambda: scaling.run(quanta=2000),
        lambda: scaling.run(
            port_counts=(4, 8), quanta=600, space_port_counts=(16,),
            space_partitions=2,
        ),
    ),
    "multichip": (
        "Section 8.5: Clos of k-port crossbars vs one big ring "
        "(space-partitionable)",
        lambda: multichip.run(quanta=2000),
        lambda: multichip.run(quanta=500, partitions=2, latency=2),
    ),
    "lookup": (
        "Section 8.2: route-lookup structures on a tile",
        lambda: lookup_ext.run(table_sizes=(1000, 10000, 50000), lookups=2000),
        lambda: lookup_ext.run(table_sizes=(1000,), lookups=600),
    ),
    "load_latency": (
        "Extension: latency vs offered load (edge-router curve)",
        lambda: load_latency.run(packets_per_port=400),
        lambda: load_latency.run(loads=(0.3, 0.9), packets_per_port=120),
    ),
    "compute": (
        "Section 8.3: computation inside the switch fabric",
        lambda: compute_ext.run(quanta=2000),
        lambda: compute_ext.run(quanta=600),
    ),
    "resilience": (
        "Fault injection: MTTR, degraded goodput, drop taxonomy",
        resilience.run,
        resilience.run_quick,
    ),
}


class _UsageError(Exception):
    """A bad subcommand argument: ``main`` prints it and returns 2."""


class _Subparser(argparse.ArgumentParser):
    def error(self, message):  # one line, not argparse's usage block
        raise _UsageError(f"{self.prog}: error: {message}")


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    if text.isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _readable(path: str) -> str:
    """argparse type: a file this process can open for reading."""
    try:
        with open(path):
            return path
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc.strerror}")


def _traffic(value: str) -> str:
    """argparse type: a traffic spelling that resolves (a trace must be
    readable)."""
    from repro.traffic.spec import resolve_traffic

    try:
        spec = resolve_traffic(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if spec.kind == "replay":
        _readable(spec.trace)
    return value


def _plan_file(path: str) -> str:
    """argparse type: a fault-plan JSON file that loads."""
    from repro.faults.plan import FaultPlan

    try:
        FaultPlan.from_json(path)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc.strerror}")
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad fault plan {path!r}: {exc}")
    return path


def _cmd_list() -> int:
    width = max(len(name) for name in REGISTRY)
    for name, (desc, _, _) in REGISTRY.items():
        print(f"{name:<{width}}  {desc}")
    return 0


def _cmd_run(names, quick: bool) -> int:
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use `python -m repro list`", file=sys.stderr)
        return 2
    for name in names:
        _, full, fast = REGISTRY[name]
        result = (fast if quick else full)()
        print(result.to_text())
        print()
    return 0


def _cmd_bench(args) -> int:
    from repro import bench

    return bench.main(
        mode="quick" if args.quick else "full",
        engines=args.engines.split(",") if args.engines else None,
        repeats=args.repeats,
        out=args.out,
        set_baseline=args.set_baseline,
        check_only=args.check,
    )


def _cmd_chaos(args) -> int:
    from repro.experiments import resilience

    runner = resilience.run_quick if args.quick else resilience.run
    kwargs = dict(
        seed=args.seed, out=args.out, plan=args.plan, telemetry=args.telemetry
    )
    if args.worlds is not None:
        kwargs["worlds"] = args.worlds
    result = runner(**kwargs)
    print(result.to_text())
    print(f"wrote {args.out}")
    if args.check:
        failed = [c for c in result.checks if not c["passed"]]
        for c in failed:
            print(f"CHECK FAILED: {c['name']}: {c['detail']}", file=sys.stderr)
        return 1 if failed else 0
    return 0


def _cmd_trace(args) -> int:
    from repro.telemetry import traced

    return traced.main(args)


def _cmd_sweep(args) -> int:
    from repro.config import SimConfig
    from repro.engines import WorkloadSpec
    from repro.sweep import parse_grid, run_sweep, summarize, write_results

    base_config = SimConfig(
        fidelity=args.fidelity,
        partitions=args.partitions,
        link_latency=args.link_latency,
    )
    base_workload = WorkloadSpec(
        pattern=args.pattern,
        packet_bytes=args.bytes,
        quanta=args.quanta,
        fault_plan=args.fault_plan,
        traffic=args.traffic,
    )
    try:
        grid = parse_grid(args.grid)
        # A traffic spec, trace or plan that cannot be read fails here,
        # before any cell runs.
        for value in grid.get("traffic", ()):
            _traffic(value)
        for value in grid.get("fault_plan", ()):
            _plan_file(str(value))
        table = run_sweep(
            grid,
            workers=args.workers,
            base_config=base_config,
            base_workload=base_workload,
            base_seed=args.seed,
            telemetry=args.telemetry,
            worlds=args.worlds,
        )
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"bad --grid: {exc}", file=sys.stderr)
        return 2
    write_results(table, args.out)
    print(summarize(table))
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _Subparser(
        prog="python -m repro",
        description="Regenerate tables/figures from the Raw router paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("names", nargs="+", help="experiment names (see `list`)")
    run.add_argument("--quick", action="store_true", help="reduced budgets")
    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--quick", action="store_true")
    bench = sub.add_parser(
        "bench", help="wall-clock benchmark of the simulation engines"
    )
    bench.add_argument("--quick", action="store_true", help="CI smoke budgets")
    bench.add_argument(
        "--engines",
        "--engine",
        default=None,
        metavar="E1[,E2...]",
        help="comma-separated engine subset (default: all three kernel "
        "engines); 'fabric-large' selects the fabric fast-path suite, "
        "'manyworlds' the vectorized Monte Carlo suite, 'space' the "
        "space-partitioned distributed-Clos suite",
    )
    bench.add_argument("--repeats", type=int, default=1, help="best-of-N timing")
    bench.add_argument(
        "--out", default=None, help="results JSON (default benchmarks/BENCH_results.json)"
    )
    bench.add_argument(
        "--set-baseline",
        action="store_true",
        help="re-pin the stored baseline to this run",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="validate the results file schema and exit (no benchmarking)",
    )
    trace = sub.add_parser(
        "trace",
        help="run one experiment with telemetry on; export a Chrome/"
        "Perfetto trace plus stage-latency and kernel-profile tables",
    )
    trace.add_argument(
        "experiment",
        nargs="?",
        default="fig7_1_peak",
        help="traceable experiment (see repro.telemetry.traced.SPECS)",
    )
    trace.add_argument(
        "--out", default=None, metavar="TRACE.json",
        help="write the Chrome-trace JSON here (load in ui.perfetto.dev)",
    )
    trace.add_argument(
        "--packets", type=int, default=None, help="override the packet budget"
    )
    trace.add_argument(
        "--summary",
        action="store_true",
        help="also print metrics snapshot + first packet journeys",
    )
    trace.add_argument("--quick", action="store_true", help="CI smoke budget")
    trace.add_argument(
        "--check",
        action="store_true",
        help="self-check: schema, determinism, disabled-run identity, "
        "journey completeness, <=5%% disabled overhead",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--snapshot-interval",
        type=int,
        default=None,
        metavar="CYCLES",
        help="metrics snapshot cadence (default 5000 cycles)",
    )
    trace.add_argument(
        "--bench-results",
        default=None,
        metavar="BENCH.json",
        help="bench results file for the overhead reference "
        "(default benchmarks/BENCH_results.json)",
    )
    trace.add_argument(
        "--stats-out",
        default=None,
        metavar="STATS.json",
        help="write the per-stage latency table as JSON "
        "(schema repro-trace-stats/1)",
    )
    trace.add_argument(
        "--baseline",
        default=None,
        metavar="OLD.json",
        help="diff this run's stage latencies against a prior --stats-out "
        "file and flag the biggest mover",
    )
    trace.add_argument(
        "--engine",
        default=None,
        choices=("router", "fabric", "space", "wordlevel"),
        help="override the spec's engine fidelity",
    )
    trace.add_argument(
        "--partitions",
        type=int,
        default=None,
        metavar="P",
        help="space-engine worker count (P>1 merges per-worker telemetry)",
    )
    top = sub.add_parser(
        "top",
        help="live telemetry view: per-port/per-class/per-worker throughput,"
        " queue depth, and journey-latency tails while a run executes",
    )
    top.add_argument(
        "experiment",
        nargs="?",
        default="fig7_1_peak",
        help="traceable experiment (see repro.telemetry.traced.SPECS)",
    )
    top.add_argument(
        "--engine",
        default=None,
        choices=("router", "fabric", "space", "wordlevel"),
        help="override the spec's engine fidelity",
    )
    top.add_argument(
        "--partitions", type=int, default=None, metavar="P",
        help="space-engine worker count (adds per-worker rows)",
    )
    top.add_argument("--quick", action="store_true", help="CI smoke budget")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="refresh period for the live table",
    )
    top.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N refreshes (0 = until the run ends)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="run to completion, render one final table, exit (no ANSI)",
    )
    replay = sub.add_parser(
        "replay",
        help="replay a recorded flow trace (.csv/.jsonl) through the "
        "fabric (twice), the space engine (partitions=2 vs 1, for k*k-port "
        "traces) and (4-port traces) word-level",
    )
    replay.add_argument("trace", type=_readable, help="flow-record trace: .csv or .jsonl")
    replay.add_argument("--quanta", type=_positive_int, default=600, help="fabric budget")
    replay.add_argument(
        "--cycles", type=int, default=24_000, help="word-level cycle budget"
    )
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless the fabric reruns match and the "
        "space engine's partitions=2 run matches partitions=1",
    )
    replay.add_argument(
        "--stats-out",
        default=None,
        metavar="STATS.json",
        help="write the replay stats document "
        "(schema repro-replay-stats/2)",
    )
    sweep = sub.add_parser(
        "sweep", help="fan a config grid across multiprocessing workers"
    )
    sweep.add_argument(
        "--grid",
        nargs="+",
        action="extend",
        required=True,
        metavar="KEY=V1[,V2...]",
        help="grid axes over SimConfig / WorkloadSpec / CostModel fields "
        "(aliases: quantum, clock, fifo, engine, bytes)",
    )
    sweep.add_argument("--workers", type=_positive_int, default=1, help="pool size")
    sweep.add_argument(
        "--worlds",
        type=_positive_int,
        default=1,
        metavar="K",
        help="run every cell as a K-seed Monte Carlo batch through the "
        "vectorized many-worlds engine; rows gain mean ± 95%% CI "
        "envelopes (cells that cannot vectorize fall back to K scalar "
        "runs, with the reason recorded)",
    )
    sweep.add_argument("--out", default="sweep_results.json", help="JSON output path")
    sweep.add_argument("--seed", type=int, default=0, help="base seed")
    sweep.add_argument(
        "--fidelity",
        default="fabric",
        choices=("fabric", "space", "router", "wordlevel"),
        help="default engine for cells that do not sweep it",
    )
    sweep.add_argument(
        "--partitions",
        type=int,
        default=1,
        metavar="P",
        help="default space-engine worker count for cells that do not "
        "sweep it (0 = adaptive min(middle-stage chips, cpu_count); "
        "cells can also sweep `partitions=0,2,4` as an axis; only the "
        "`space` fidelity distributes)",
    )
    sweep.add_argument(
        "--link-latency",
        type=int,
        default=4,
        metavar="L",
        help="inter-chip channel latency in quanta for the space engine "
        "(= the token-window length)",
    )
    sweep.add_argument(
        "--pattern",
        default="permutation",
        choices=("permutation", "uniform", "hotspot"),
        help="default traffic pattern",
    )
    sweep.add_argument("--bytes", type=int, default=1024, help="packet size")
    sweep.add_argument(
        "--quanta", type=_positive_int, default=2000, help="routing quanta budget"
    )
    sweep.add_argument(
        "--traffic",
        default=None,
        type=_traffic,
        metavar="SPEC",
        help="declarative workload for every cell: a preset name "
        "(imix, imix_onoff, bursty, hotspot_drift, ...), a TrafficSpec "
        ".json path, or a .csv/.jsonl trace to replay; overrides "
        "--pattern/--bytes (cells can also sweep `traffic=...` as an axis)",
    )
    sweep.add_argument(
        "--fault-plan",
        type=_plan_file,
        default=None,
        metavar="PLAN.json",
        help="arm this fault plan in every cell (cells can still sweep "
        "`faults=planA.json,planB.json` as a grid axis)",
    )
    sweep.add_argument(
        "--telemetry",
        action="store_true",
        help="enable telemetry in every worker; each cell's result "
        "carries a telemetry summary",
    )
    chaos = sub.add_parser(
        "chaos", help="fault-injection scenarios: MTTR / goodput / drops"
    )
    chaos.add_argument("--quick", action="store_true", help="CI smoke budgets")
    chaos.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if any resilience invariant fails",
    )
    chaos.add_argument(
        "--out",
        default="benchmarks/RESILIENCE_results.json",
        help="results JSON (schema repro-resilience/1)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--plan",
        type=_plan_file,
        default=None,
        metavar="PLAN.json",
        help="also run this fault-plan file as an extra scenario",
    )
    chaos.add_argument(
        "--worlds",
        type=int,
        default=None,
        metavar="K",
        help="size the many-worlds baseline envelope (default 200, "
        "64 with --quick; 0 disables the envelope and its checks)",
    )
    chaos.add_argument(
        "--telemetry",
        action="store_true",
        help="run scenarios with telemetry on; the results JSON gains "
        "per-scenario event/journey summaries",
    )
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.names, args.quick)
    if args.command == "all":
        return _cmd_run(list(REGISTRY), args.quick)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "top":
        from repro.telemetry import top as top_mod

        return top_mod.main(args)
    if args.command == "replay":
        from repro.traffic import replay as replay_mod

        return replay_mod.main(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return 2  # pragma: no cover
