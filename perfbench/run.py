"""The repository benchmark: host cost of the simulator, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness [--sets 1] [--workload NAME]

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics
(``setup_s``, ``run_s``, ``peak_rss_mb``); ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object; the exit code is nonzero when any output check failed.
``--steadiness`` runs every workload ten times at seeds 1..10 per set and
prints each end-to-end metric's median and IQR beside its bound, and with
two or more sets each later set's signed drift from the first.

Every measurement runs in a fresh interpreter (``child.py``) with the
program's ``src/`` on its path; this process imports nothing from it.
"""

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calib import NOMINAL_PROCESS_S, process_reference, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_RUNS = 5
#: Fresh processes for the traced run's ``setup.*`` metrics.
TRACE_SETUP_RUNS = 3
#: Whole-run budget; the contract allows 180 s.
DEADLINE_S = 170
#: Runs per workload and set in ``--steadiness`` (seeds 1..STEADY_RUNS).
STEADY_RUNS = 10
#: Metrics whose spread ``--steadiness`` prints but does not hold to a
#: third of the bound; only their set-to-set drift is gated.  A set-up
#: sample is a fresh interpreter loading ~1,000 modules, and no host-speed
#: reference tried tracks it closely enough (README, "Steadiness").
SPREAD_NOT_GATED = ("setup_s",)


class BenchError(RuntimeError):
    pass


def _child(args, deadline):
    """Run ``child.py args`` in its own session; return its JSON line."""
    cmd = [sys.executable, str(BENCH / "child.py")] + [str(a) for a in args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out, err = None, "timed out"
    finally:
        try:  # the child's workers are in its session; none may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if out is None:
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child {args[0]} failed ({proc.returncode}): "
                         f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _setups(name, seed, n, deadline):
    """``n`` fresh-process set-ups; each total is scaled by the host-speed
    process reference timed just before and after its process."""
    runs = []
    before = process_reference()
    for _ in range(n):
        run = _child(["setup", name, seed, 0], deadline)
        after = process_reference()
        run["total_s"] = run["import_s"] + run["first_call_s"]
        run["scaled_s"] = scaled(run["total_s"], before, after, NOMINAL_PROCESS_S)
        runs.append(run)
        before = after
    return runs, {
        "import_s": statistics.median(r["import_s"] for r in runs),
        "first_call_s": statistics.median(r["first_call_s"] for r in runs),
        "scaled_s": statistics.median(r["scaled_s"] for r in runs),
        "modules": max(r["modules"] for r in runs),
    }


def measure(name, seed, seconds, trace):
    """``(result, problems)``: the result object the last line prints."""
    deadline = time.monotonic() + DEADLINE_S
    # The build: byte-compile the program once, so no set-up sample pays it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    setup_runs, setup = _setups(name, seed, TRACE_SETUP_RUNS if trace else SETUP_RUNS,
                                deadline)
    if trace:
        spans = BENCH / "out" / f"spans-{name}-{seed}.tsv"
        run = _child(["trace", name, seed, seconds, spans], deadline)
        values = dict(run["metrics"], **{f"setup.{k}": setup[k] for k in
                                         ("import_s", "first_call_s", "modules")})
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        metrics = {k: (values[k], unit) for k, unit in units.items()}
        print(f"{name}: calls per kind {run['calls']}; spans in {spans.relative_to(ROOT)}")
    else:
        run = _child(["run", name, seed, seconds], deadline)
        samples = run["samples"]
        peak = run["own_rss_mb"] + run["workers"] * run["worker_rss_mb"]
        metrics = {
            "setup_s": (setup["scaled_s"], "s"),
            "run_s": (statistics.median(run["scaled_samples"]), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        q1, q2, q3 = statistics.quantiles(run["scaled_samples"], n=4)
        print(f"{name}: {len(samples)} timed calls at nominal host speed: median "
              f"{q2:.4f} s, quartiles {q1:.4f}..{q3:.4f} s; raw seconds "
              f"{[round(s, 4) for s in samples]} (median "
              f"{statistics.median(samples):.4f})")
        print(f"{name}: set-up raw seconds "
              f"{[round(r['total_s'], 4) for r in setup_runs]} (median "
              f"{statistics.median(r['total_s'] for r in setup_runs):.4f}); at nominal "
              f"host speed {[round(r['scaled_s'], 4) for r in setup_runs]}")
        print(f"{name}: workers {run['workers']}, own peak {run['own_rss_mb']:.1f} MB, "
              f"largest worker peak {run['worker_rss_mb']:.1f} MB")
        print(f"{name}: simulated outputs {json.dumps(run['outputs'])}")
    problems = run["problems"] + [p for r in setup_runs for p in r["problems"]]
    failed = run["failed"] + sum(r["failed"] for r in setup_runs)
    result = {
        "correct": failed == 0,
        "attempted": run["attempted"] + sum(r["attempted"] for r in setup_runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, problems


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def steadiness(names, sets, seconds):
    """Run each workload :data:`STEADY_RUNS` times per set; report spread
    and set-to-set drift against each metric's bound.  A metric is steady
    when every set's IQR is at most a third of its bound (unless it is in
    :data:`SPREAD_NOT_GATED`) and every later set's median is within the
    bound of the first set's, either way."""
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = seconds or spec["run_seconds"]
    report = {}
    ok = True
    for name in names:
        per_set = []
        for s in range(sets):
            values = {m: [] for m in bounds}
            for seed in range(1, STEADY_RUNS + 1):
                out = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True)
                last = out.stdout.strip().splitlines()[-1:] or ["{}"]
                res = json.loads(last[0]) if last[0].startswith("{") else {}
                if out.returncode != 0 or not res.get("correct"):
                    print(f"{name} seed {seed}: FAILED\n{out.stdout}{out.stderr}")
                    ok = False
                    continue
                for m in bounds:
                    values[m].append(res["metrics"][m]["value"])
            per_set.append(values)
        report[name] = []
        for m, bound in bounds.items():
            row = {"metric": m, "bound": bound, "sets": []}
            for values in per_set:
                v = values[m] or [float("nan")]
                q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
                row["sets"].append({"median": med, "iqr_share": (q3 - q1) / med,
                                    "values": v})
            first = row["sets"][0]["median"]
            row["drifts"] = [s["median"] / first - 1 for s in row["sets"][1:]]
            spread = max(s["iqr_share"] for s in row["sets"])
            gated = m not in SPREAD_NOT_GATED
            row["steady"] = ((spread <= bound / 3 or not gated)
                             and all(abs(d) <= bound for d in row["drifts"]))
            ok = ok and row["steady"]
            report[name].append(row)
            print(f"{name:20s} {m:12s} median "
                  + " / ".join(f"{s['median']:.4f}" for s in row["sets"])
                  + "  IQR/median " + " / ".join(f"{s['iqr_share']:.3f}"
                                                for s in row["sets"])
                  + "".join(f"  drift {d:+.3f}" for d in row["drifts"])
                  + f"  bound {bound} (IQR {bound / 3:.3f}"
                  + ("" if gated else ", not gated") + ")"
                  + f"  {'ok' if row['steady'] else 'UNSTEADY'}")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(report, indent=1))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.steadiness:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return 0 if steadiness(names, args.sets, args.seconds) else 1
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    try:
        result, problems = measure(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    for p in problems:
        print(f"FAILED CHECK: {p}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
