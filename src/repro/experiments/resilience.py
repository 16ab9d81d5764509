"""Resilience under injected faults: recovery time and degraded goodput.

The chaos counterpart of the throughput experiments: each scenario arms
one :class:`~repro.faults.plan.FaultPlan` against an engine run and
reports the resilience metrics of :mod:`repro.metrics.resilience` --
mean time to recover (MTTR, in cycles), delivered-vs-offered goodput,
and the drop taxonomy.  The scenarios map one-to-one to the failure
modes the fault model defines:

* ``baseline`` / ``empty_plan`` -- the fault-free reference, and the
  guarantee that an *empty* plan is bit-identical to no plan at all;
* ``dead_port`` -- one of four ports dies mid-run; degraded-mode
  routing masks it and the surviving ports' goodput is compared against
  a genuine 3-port fault-free run (the proportional-degradation claim);
* ``token_loss`` -- the rotating token vanishes; the fabric detects it
  by timeout and regenerates it at port 0 in a bounded number of idle
  quanta;
* ``link_flap`` -- an input link drops twice briefly; held words resume
  and both windows close;
* ``corrupt`` -- single-word corruption, caught downstream by the IP
  header checksum and counted as a drop, never delivered;
* ``overload`` -- an egress line card is overrun; upstream queues hold
  and drain after the window;
* ``phase_mixed`` -- a combined plan on the phase-level router engine,
  exercising the same machinery through the full ingress/lookup/egress
  pipeline.

``run()`` also evaluates the acceptance invariants (the ``checks`` list
in the JSON table): empty-plan identity, dead-port goodput within
tolerance of the 3-port reference, bounded token MTTR, and no
unrecovered faults.  ``python -m repro chaos --check`` turns any failed
check into a nonzero exit, which is what the CI smoke job gates on.

The acceptance bounds carry *real error bars*: before the chaos
scenarios run, the fault-free baseline is swept through the vectorized
many-worlds engine (:mod:`repro.parallel.manyworlds`) across ``worlds``
independent seeds.  The resulting envelope (mean/std/ci95/percentiles
per metric) lands in the JSON table as ``baseline_envelope``, the
world-0 run is checked bit-identical against the scalar engine, and the
single-seed baseline plus the dead-port ratio are judged against the
measured seed-to-seed spread instead of bare magic constants.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.config import SimConfig
from repro.engines import FabricEngine, RouterEngine, RunResult, WorkloadSpec
from repro.experiments.common import ExperimentResult
from repro.faults.plan import FaultEvent, FaultPlan, resolve_plan

RESULTS_SCHEMA = "repro-resilience/1"
DEFAULT_OUT = "benchmarks/RESILIENCE_results.json"

#: Generous bound on token-regeneration time: detection happens at the
#: next quantum boundary (one full body quantum at most) and repair
#: burns ``ports + 1`` idle control quanta, so anything in this
#: neighbourhood is "bounded"; a runaway would be orders larger.
TOKEN_MTTR_BOUND_CYCLES = 5_000

#: Monte Carlo budget for the fault-free baseline envelope: enough
#: worlds for a stable std estimate without dominating the experiment
#: wall-clock (the vectorized engine makes 200 worlds cheaper than a
#: handful of scalar runs).
ENVELOPE_WORLDS = 200
ENVELOPE_WORLDS_QUICK = 64


def _baseline_envelope(
    base: WorkloadSpec, seed: int, worlds: int, ports: int = 4
) -> Dict[str, Any]:
    """Many-worlds sweep of the fault-free baseline.

    Returns the JSON-ready envelope block: per-metric
    mean/std/ci95/percentile statistics over ``worlds`` seeds, plus the
    world-0 vs scalar bit-identity verdict.  Must run *before* any
    telemetry capture is armed -- the vectorized engine refuses to run
    under an active recorder and would fall back to ``worlds`` scalar
    runs.
    """
    from repro.parallel.manyworlds import run_scalar_world, run_worlds

    config = SimConfig(seed=seed, ports=ports)
    mw = run_worlds(config, base, worlds)
    w0 = mw.world_result(0)
    scalar0 = run_scalar_world(config, base, 0)
    identical = (
        w0.gbps == scalar0.gbps
        and w0.cycles == scalar0.cycles
        and w0.delivered_packets == scalar0.delivered_packets
        and w0.delivered_words == scalar0.delivered_words
    )
    return {
        "worlds": worlds,
        "ports": ports,
        "vectorized": mw.vectorized,
        "fallback_reason": mw.fallback_reason,
        "envelopes": mw.envelopes(),
        "world0_identical": identical,
        "world0_gbps": w0.gbps,
        "world0_scalar_gbps": scalar0.gbps,
    }


def _fabric_run(
    workload: WorkloadSpec, seed: int, ports: int = 4
) -> RunResult:
    return FabricEngine(SimConfig(seed=seed, ports=ports)).run(workload)


def _scenario_row(name: str, res: RunResult) -> Dict[str, Any]:
    resil = res.extra.get("resilience", {})
    return {
        "name": name,
        "fidelity": res.fidelity,
        "gbps": res.gbps,
        "cycles": res.cycles,
        "delivered_packets": res.delivered_packets,
        "per_port_packets": list(res.per_port_packets),
        "faults_injected": resil.get("faults_injected", 0),
        "faults_missed": resil.get("faults_missed", 0),
        "mttr_cycles": resil.get("mttr_cycles"),
        "max_recovery_cycles": resil.get("max_recovery_cycles"),
        "unrecovered": resil.get("unrecovered", 0),
        "goodput_ratio": resil.get("goodput_ratio"),
        "drops": resil.get("drops", {}),
    }


def run(
    quanta: int = 4000,
    packets: int = 2400,
    seed: int = 0,
    out: Optional[str] = DEFAULT_OUT,
    plan: Optional[str] = None,
    telemetry: bool = False,
    worlds: int = ENVELOPE_WORLDS,
) -> ExperimentResult:
    """The resilience table: one row per chaos scenario.

    ``plan`` optionally names a fault-plan JSON file to run as an extra
    user scenario at fabric fidelity.  Writes the machine-readable table
    to ``out`` (schema ``repro-resilience/1``) unless ``out`` is None.
    ``telemetry`` runs every scenario with the telemetry layer enabled
    and attaches the aggregate event/journey summary to the table.
    ``worlds`` sizes the many-worlds baseline envelope (0 disables it
    and the envelope-derived checks).
    """
    base = WorkloadSpec(pattern="uniform", packet_bytes=1024, quanta=quanta)
    # Envelope first: the vectorized engine refuses to run while a
    # telemetry recorder is armed (it cannot emit per-world traces).
    env = _baseline_envelope(base, seed, worlds) if worlds > 0 else None
    if telemetry:
        from repro.telemetry import runtime as _telemetry

        with _telemetry.capture() as tel:
            return _run_scenarios(quanta, packets, seed, out, plan, tel, base, env)
    return _run_scenarios(quanta, packets, seed, out, plan, None, base, env)


def _run_scenarios(
    quanta: int,
    packets: int,
    seed: int,
    out: Optional[str],
    plan: Optional[str],
    tel,
    base: WorkloadSpec,
    env: Optional[Dict[str, Any]],
) -> ExperimentResult:
    result = ExperimentResult(
        name="resilience",
        description="Chaos scenarios: MTTR (cycles), goodput, drop taxonomy",
    )
    costs = SimConfig().cost_model()
    words = costs.bytes_to_words(1024)
    # Rough per-quantum cycle cost (body + control) used only to place
    # fault cycles sensibly inside the run; nothing here needs to be
    # exact because every window is measured, not predicted.
    est_q = words + 100
    warmup = max(50, quanta // 20)
    horizon = quanta * est_q
    scenarios: List[Dict[str, Any]] = []

    # -- baseline + empty-plan identity ---------------------------------
    baseline = _fabric_run(base, seed)
    empty = _fabric_run(base.replace(fault_plan=FaultPlan.empty()), seed)
    result.add("baseline_gbps", baseline.gbps)
    scenarios.append(_scenario_row("baseline", baseline))
    # Seed-to-seed spread of the fault-free fabric, from the many-worlds
    # envelope computed in run().  ``rel_spread`` (std/mean of gbps) is
    # the real error bar behind the acceptance tolerances below.
    genv = env["envelopes"]["gbps"] if env is not None else None
    rel_spread = (
        genv["std"] / genv["mean"] if genv is not None and genv["mean"] else 0.0
    )
    if genv is not None:
        result.add(
            "baseline_envelope_gbps",
            f"{genv['mean']:.3f} ± {genv['ci95']:.3f}",
            extra_note=f"{env['worlds']} worlds, p50 {genv['p50']:.3f} "
            f"p99 {genv['p99']:.3f}",
        )
    empty_identical = (
        baseline.gbps == empty.gbps
        and baseline.cycles == empty.cycles
        and baseline.delivered_packets == empty.delivered_packets
    )

    # -- dead port vs a true 3-port reference ---------------------------
    # Permutation traffic with shift=1: killing port 3 turns the 4-flow
    # permutation into a clean 3-flow one (input 2's remapped 3->0 flow
    # replaces exactly the flow the dead input 3 stopped sending), so
    # the surviving ports' goodput is directly comparable to a genuine
    # 3-port fault-free run -- the proportional-degradation claim.
    # Uniform traffic would instead concentrate remapped load on one
    # neighbour (a hotspot, a different experiment).
    kill_cycle = (warmup + 10) * est_q  # just after the measured window opens
    perm = base.replace(pattern="permutation", shift=1)
    dead = _fabric_run(
        perm.replace(
            fault_plan=FaultPlan(
                events=(FaultEvent(cycle=kill_cycle, kind="port_down", target="port:3"),),
                name="dead-port",
            )
        ),
        seed,
    )
    ref3 = _fabric_run(perm, seed, ports=3)
    dead_ratio = dead.gbps / ref3.gbps if ref3.gbps else 0.0
    result.add("dead_port_gbps", dead.gbps, extra_note="vs 3-port ref")
    result.add("dead_port_vs_3port_ref", dead_ratio, 1.0)
    row = _scenario_row("dead_port", dead)
    row["ref_3port_gbps"] = ref3.gbps
    row["vs_3port_ref"] = dead_ratio
    scenarios.append(row)

    # -- token loss ------------------------------------------------------
    token = _fabric_run(
        base.replace(
            fault_plan=FaultPlan(
                events=(FaultEvent(cycle=horizon // 3, kind="token_loss"),),
                name="token-loss",
            )
        ),
        seed,
    )
    token_mttr = token.extra["resilience"]["mttr_cycles"]
    result.add("token_loss_mttr_cycles", token_mttr)
    scenarios.append(_scenario_row("token_loss", token))

    # -- flapping input link --------------------------------------------
    flap_at = horizon // 4
    flap = _fabric_run(
        base.replace(
            fault_plan=FaultPlan(
                events=(
                    FaultEvent(cycle=flap_at, kind="link_down", target="input:1",
                               duration=8 * est_q),
                    FaultEvent(cycle=flap_at + 20 * est_q, kind="link_down",
                               target="input:1", duration=8 * est_q),
                ),
                name="link-flap",
            )
        ),
        seed,
    )
    result.add(
        "link_flap_goodput", flap.extra["resilience"]["goodput_ratio"]
    )
    scenarios.append(_scenario_row("link_flap", flap))

    # -- single-word corruption -----------------------------------------
    corrupt = _fabric_run(
        base.replace(
            fault_plan=FaultPlan(
                events=tuple(
                    FaultEvent(cycle=horizon // 3 + i * 10 * est_q,
                               kind="corrupt", target=f"input:{i}", param=5 + i)
                    for i in range(3)
                ),
                name="corrupt",
            )
        ),
        seed,
    )
    result.add(
        "corrupt_drops", corrupt.extra["resilience"]["drops"].get("corrupt", 0), 3
    )
    scenarios.append(_scenario_row("corrupt", corrupt))

    # -- egress overload -------------------------------------------------
    overload = _fabric_run(
        base.replace(
            fault_plan=FaultPlan(
                events=(FaultEvent(cycle=horizon // 2, kind="overload",
                                   target="port:2", duration=15 * est_q),),
                name="overload",
            )
        ),
        seed,
    )
    result.add(
        "overload_goodput", overload.extra["resilience"]["goodput_ratio"]
    )
    scenarios.append(_scenario_row("overload", overload))

    # -- bursty declarative workload under a link flap -------------------
    # The chaos harness through the unified traffic layer: IMIX sizes
    # with heavy on-off arrivals (the "imix_onoff" preset) instead of a
    # saturated fixed-size pattern, so recovery is measured under gaps
    # and mixed packet sizes.
    imix = _fabric_run(
        base.replace(
            traffic="imix_onoff",
            fault_plan=FaultPlan(
                events=(
                    FaultEvent(cycle=flap_at, kind="link_down",
                               target="input:2", duration=8 * est_q),
                ),
                name="imix-onoff-flap",
            ),
        ),
        seed,
    )
    result.add(
        "imix_onoff_goodput", imix.extra["resilience"]["goodput_ratio"]
    )
    scenarios.append(_scenario_row("imix_onoff", imix))

    # -- combined plan through the phase-level router --------------------
    phase_plan = FaultPlan(
        events=(
            FaultEvent(cycle=36_000, kind="token_loss"),
            FaultEvent(cycle=42_000, kind="link_down", target="input:1",
                       duration=2_000),
            FaultEvent(cycle=48_000, kind="corrupt", target="input:2", param=7),
        ),
        name="phase-mixed",
    )
    phase = RouterEngine(SimConfig(fidelity="router", seed=seed)).run(
        WorkloadSpec(pattern="uniform", packet_bytes=1024, packets=packets,
                     fault_plan=phase_plan)
    )
    presil = phase.extra["resilience"]
    result.add("phase_mixed_goodput", presil["goodput_ratio"])
    result.add("phase_mixed_mttr_cycles", presil["mttr_cycles"])
    scenarios.append(_scenario_row("phase_mixed", phase))

    # -- optional user plan ---------------------------------------------
    if plan is not None:
        user = _fabric_run(base.replace(fault_plan=plan), seed)
        user_name = getattr(resolve_plan(plan), "name", "") or "user_plan"
        row = _scenario_row(f"plan:{user_name}", user)
        scenarios.append(row)
        resil = user.extra.get("resilience", {})
        result.add(f"plan_{user_name}_goodput", resil.get("goodput_ratio"))

    # -- acceptance invariants ------------------------------------------
    checks = [
        {
            "name": "empty_plan_identity",
            "passed": empty_identical,
            "detail": f"empty-plan run {empty.gbps:.8f} Gbps / {empty.cycles} cyc "
                      f"vs baseline {baseline.gbps:.8f} Gbps / {baseline.cycles} cyc",
        },
        {
            # The 5% floor is the historical bound; the envelope widens
            # it when the measured seed-to-seed spread says 5% would be
            # tighter than the fabric's own run-to-run noise.
            "name": "dead_port_within_5pct_of_3port",
            "passed": abs(dead_ratio - 1.0) <= max(0.05, 3 * rel_spread),
            "detail": f"degraded 4-port {dead.gbps:.3f} Gbps vs 3-port "
                      f"reference {ref3.gbps:.3f} Gbps (ratio {dead_ratio:.4f}, "
                      f"tolerance {max(0.05, 3 * rel_spread):.4f} from "
                      f"3-sigma envelope spread)",
        },
        {
            "name": "token_mttr_bounded",
            "passed": token_mttr is not None
            and 0 < token_mttr <= TOKEN_MTTR_BOUND_CYCLES,
            "detail": f"token regenerated in {token_mttr} cycles "
                      f"(bound {TOKEN_MTTR_BOUND_CYCLES})",
        },
        {
            "name": "imix_onoff_delivers",
            "passed": imix.delivered_packets > 0
            and imix.extra["resilience"]["faults_injected"] == 1,
            "detail": f"declarative imix_onoff workload delivered "
                      f"{imix.delivered_packets} packets under a link flap",
        },
        {
            "name": "all_faults_recovered",
            "passed": all(s["unrecovered"] == 0 for s in scenarios),
            "detail": "open recovery records: "
            + ", ".join(f"{s['name']}={s['unrecovered']}" for s in scenarios),
        },
    ]
    if env is not None:
        checks.append(
            {
                "name": "manyworlds_world0_identity",
                "passed": bool(env["world0_identical"]),
                "detail": f"vectorized world 0 {env['world0_gbps']:.8f} Gbps "
                f"vs scalar engine {env['world0_scalar_gbps']:.8f} Gbps "
                f"({env['worlds']} worlds, "
                f"{'vectorized' if env['vectorized'] else 'scalar fallback'})",
            }
        )
        # The single-seed baseline draws traffic from the historical
        # shared-np.random source, the envelope from the counter RNG --
        # different streams, same uniform-saturated distribution -- so
        # the baseline must sit inside the envelope's spread, not match
        # its mean exactly.
        tol = max(5 * genv["std"], 0.05 * genv["mean"])
        checks.append(
            {
                "name": "baseline_within_envelope",
                "passed": abs(baseline.gbps - genv["mean"]) <= tol,
                "detail": f"single-seed baseline {baseline.gbps:.3f} Gbps vs "
                f"envelope {genv['mean']:.3f} ± {genv['ci95']:.3f} Gbps "
                f"(ci95, {env['worlds']} worlds; tolerance {tol:.3f})",
            }
        )
    for c in checks:
        result.add(f"check:{c['name']}", "pass" if c["passed"] else "FAIL")
    result.checks = checks
    result.notes = "\n".join(
        f"  {s['name']:<14} {s['gbps']:8.3f} Gbps  "
        f"mttr={s['mttr_cycles'] if s['mttr_cycles'] is not None else '-':>8}  "
        f"goodput={s['goodput_ratio'] if s['goodput_ratio'] is not None else '-'}  "
        f"drops={s['drops']}"
        for s in scenarios
    )

    if out is not None:
        table = {
            "schema": RESULTS_SCHEMA,
            "seed": seed,
            "quanta": quanta,
            "packets": packets,
            "scenarios": scenarios,
            "checks": checks,
        }
        if env is not None:
            table["baseline_envelope"] = env
        if tel is not None:
            table["telemetry"] = tel.summary()
        with open(out, "w") as fh:
            json.dump(table, fh, indent=2)
            fh.write("\n")
    return result


def run_quick(seed: int = 0, out: Optional[str] = DEFAULT_OUT,
              plan: Optional[str] = None,
              telemetry: bool = False,
              worlds: int = ENVELOPE_WORLDS_QUICK) -> ExperimentResult:
    """CI-smoke budget: same scenarios, ~5x shorter runs, fewer worlds."""
    return run(quanta=800, packets=600, seed=seed, out=out, plan=plan,
               telemetry=telemetry, worlds=worlds)


def validate_results(path: str = DEFAULT_OUT) -> List[str]:
    """Schema-check a written resilience table; returns problem strings."""
    problems: List[str] = []
    try:
        with open(path) as fh:
            table = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    if table.get("schema") != RESULTS_SCHEMA:
        problems.append(f"schema is {table.get('schema')!r}, want {RESULTS_SCHEMA!r}")
    if not table.get("scenarios"):
        problems.append("no scenarios recorded")
    for check in table.get("checks", []):
        if not check.get("passed"):
            problems.append(f"check failed: {check['name']} ({check['detail']})")
    return problems
