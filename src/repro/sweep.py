"""Declarative configuration sweeps over ``multiprocessing`` workers.

Because :class:`~repro.config.SimConfig`, :class:`~repro.config.CostModel`
and :class:`~repro.engines.WorkloadSpec` are frozen picklable values and
every engine is reachable through
:func:`repro.engines.run_config`, a scaling study is just a grid of
configurations fanned across worker processes::

    python -m repro sweep --grid ports=4 quantum=256,512,1024 --workers 4

Grid keys name :class:`SimConfig` fields (with the short aliases
``quantum`` -> ``quantum_words``, ``clock`` -> ``clock_hz``, ``fifo`` ->
``static_fifo_depth``, ``engine`` -> ``fidelity``),
:class:`WorkloadSpec` fields (plus ``bytes``/``size`` ->
``packet_bytes``), or any :class:`CostModel` field (so the calibrated
``quantum_ctl_overhead`` itself can be swept).  The ``traffic`` axis
takes anything :func:`repro.traffic.spec.resolve_traffic` accepts --
preset names (``traffic=imix_onoff,bursty``), spec ``.json`` paths, or
``.csv``/``.jsonl`` trace paths -- so whole workload families sweep as
one grid key.  Each cell gets a
deterministic seed derived from the base seed and the cell's key/value
assignment -- rerunning a sweep, or running it with a different worker
count, reproduces identical rows.

The output is a JSON table: one row per cell with the fully-resolved
config, the workload, the :class:`~repro.engines.RunResult` schema, and
the worker pid that produced it.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import COST_MODEL_FIELDS, SIM_CONFIG_FIELDS, CostModel, SimConfig
from repro.engines import WorkloadSpec, run_config
from repro.seeds import cell_seed  # noqa: F401  (re-exported; historical home)

#: Short grid-key aliases for the most-swept knobs.
ALIASES = {
    "quantum": "quantum_words",
    "clock": "clock_hz",
    "fifo": "static_fifo_depth",
    "engine": "fidelity",
    "bytes": "packet_bytes",
    "size": "packet_bytes",
    "load_pattern": "pattern",
    # A fault-plan JSON path per cell: chaos grids fan across workers
    # like any other axis (the plan rides inside the WorkloadSpec).
    "faults": "fault_plan",
}

_WORKLOAD_FIELDS = frozenset(WorkloadSpec.__dataclass_fields__)

#: Declared type of every grid-addressable field, ``Optional`` dropped,
#: by the precedence :func:`build_cell` routes names with (SimConfig wins).
_FIELD_TYPES = {
    f.name: f.type.removeprefix("Optional[").removesuffix("]")
    for cls in (CostModel, WorkloadSpec, SimConfig)
    for f in fields(cls)
}
#: What a parsed grid value of a numeric field must be.
_NUMBER_KINDS = {"int": ("an integer", (int,)), "float": ("a number", (int, float))}


def _parse_value(text: str) -> Any:
    """int, then float, then bool, else the bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def parse_grid(specs: Sequence[str]) -> Dict[str, List[Any]]:
    """``["ports=4", "quantum=256,512"] -> {"ports": [4], ...}``.

    Refuses (``ValueError``) an entry that is not ``key=value[,...]``,
    a key named twice (aliases included), and a value a numeric field
    cannot take (``ports=abc``, ``ports=4.0``)."""
    grid: Dict[str, List[Any]] = {}
    for spec in specs:
        if "=" not in spec:
            raise ValueError(f"grid entry {spec!r} is not key=value[,value...]")
        key, _, values = spec.partition("=")
        key = ALIASES.get(key.strip(), key.strip())
        if not values:
            raise ValueError(f"grid entry {spec!r} has no values")
        if key in grid:
            raise ValueError(f"grid key {key!r} given twice ({spec!r})")
        parsed = [_parse_value(v) for v in values.split(",")]
        kind = _NUMBER_KINDS.get(_FIELD_TYPES.get(key))
        if kind is not None:
            for value in parsed:
                if value.__class__ is bool or not isinstance(value, kind[1]):
                    raise ValueError(
                        f"grid entry {spec!r}: {key} takes {kind[0]}, not {value!r}"
                    )
        grid[key] = parsed
    return grid


def expand_grid(grid: Dict[str, List[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of the grid, in deterministic key order."""
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in product(*(grid[k] for k in keys))]


def build_cell(
    cell: Dict[str, Any],
    base_config: Optional[SimConfig] = None,
    base_workload: Optional[WorkloadSpec] = None,
    base_seed: int = 0,
) -> Tuple[SimConfig, WorkloadSpec]:
    """Route a cell's key/value assignment onto (SimConfig, WorkloadSpec).

    Precedence for ambiguous names: SimConfig field, then WorkloadSpec
    field, then CostModel field; unknown keys raise."""
    config = base_config or SimConfig()
    workload = base_workload or WorkloadSpec()
    config_changes: Dict[str, Any] = {}
    workload_changes: Dict[str, Any] = {}
    cost_changes: Dict[str, Any] = {}
    for key, value in cell.items():
        if key in SIM_CONFIG_FIELDS:
            config_changes[key] = value
        elif key in _WORKLOAD_FIELDS:
            workload_changes[key] = value
        elif key in COST_MODEL_FIELDS:
            cost_changes[key] = value
        else:
            raise ValueError(
                f"unknown grid key {key!r}: not a SimConfig, WorkloadSpec, "
                "or CostModel field"
            )
    if cost_changes:
        config_changes["costs"] = config.costs.replace(**cost_changes)
    config_changes.setdefault("seed", cell_seed(base_seed, cell))
    return config.replace(**config_changes), (
        workload.replace(**workload_changes) if workload_changes else workload
    )


# ---------------------------------------------------------------------------
# Worker entry point (must be importable for multiprocessing pickling).
# ---------------------------------------------------------------------------
def _run_cell(
    payload: Tuple[Dict[str, Any], SimConfig, WorkloadSpec, bool, int]
) -> Dict[str, Any]:
    cell, config, workload, telemetry, worlds = payload
    if worlds > 1:
        # Monte Carlo cell: K seeds through the vectorized many-worlds
        # engine (per-world scalar runs when the cell cannot vectorize --
        # run_worlds warns with the reason).  ``result`` stays the
        # world-0 run, shaped exactly like a single-run row.  Telemetry
        # forces the scalar path: each world records locally and the
        # states fold into this cell's recorder (worker = world index).
        from repro.parallel.manyworlds import run_worlds

        summary = None
        if telemetry:
            from repro.telemetry import runtime as _telemetry

            with _telemetry.capture() as tel:
                mw = run_worlds(config, workload, worlds)
                summary = tel.summary()
        else:
            mw = run_worlds(config, workload, worlds)
        row = {
            "cell": cell,
            "seed": config.seed,
            "worlds": worlds,
            "vectorized": mw.vectorized,
            "worker_pid": os.getpid(),
            "result": mw.world_result(0).to_dict(),
            "envelope": mw.envelopes(),
        }
        if mw.fallback_reason:
            row["fallback_reason"] = mw.fallback_reason
        if summary is not None:
            row["telemetry"] = summary
        return row
    if telemetry:
        # Enabled per worker process: the recorder is process-global, and
        # pool workers run one cell at a time.
        from repro.telemetry import runtime as _telemetry

        with _telemetry.capture() as tel:
            result = run_config(config, workload)
            summary = tel.summary()
    else:
        result = run_config(config, workload)
        summary = None
    row = {
        "cell": cell,
        "seed": config.seed,
        "worker_pid": os.getpid(),
        "result": result.to_dict(),
    }
    if summary is not None:
        row["telemetry"] = summary
    return row


def run_sweep(
    grid: Dict[str, List[Any]],
    workers: int = 1,
    base_config: Optional[SimConfig] = None,
    base_workload: Optional[WorkloadSpec] = None,
    base_seed: int = 0,
    telemetry: bool = False,
    worlds: int = 1,
) -> Dict[str, Any]:
    """Run every cell of ``grid``; returns the JSON-ready results table.

    ``workers > 1`` fans cells across a ``multiprocessing`` pool
    (chunksize 1, so short grids still spread over the pool); the row
    order always matches :func:`expand_grid` regardless of scheduling.
    A space cell with ``partitions != 1`` starts its own worker
    processes, which a pool process may not, so such a grid raises
    ``ValueError`` before the pool starts.
    ``telemetry`` records each cell with the telemetry layer enabled and
    attaches its :meth:`~repro.telemetry.runtime.Telemetry.summary` to
    the row.  ``worlds > 1`` runs every cell as a ``worlds``-seed Monte
    Carlo batch through :mod:`repro.parallel.manyworlds`: rows gain an
    ``envelope`` (mean/std/ci95/percentiles per metric) and ``result``
    becomes the world-0 run.  Combining both records each world into a
    world-local recorder and attaches the merged summary (per-world
    provenance under ``telemetry["workers"]``).
    """
    if worlds < 1:
        raise ValueError("worlds must be >= 1")
    cells = expand_grid(grid)
    payloads = [
        (
            cell,
            *build_cell(cell, base_config, base_workload, base_seed),
            telemetry,
            worlds,
        )
        for cell in cells
    ]
    if workers > 1 and len(cells) > 1:
        import multiprocessing as mp

        # Pool processes are daemonic, and a daemonic process may not
        # start the space engine's partition workers.
        for cell, config, *_ in payloads:
            if config.fidelity == "space" and config.partitions != 1:
                named = dict(cell, partitions=config.partitions)
                text = " ".join(f"{k}={v}" for k, v in sorted(named.items()))
                raise ValueError(
                    f"--workers {workers} cannot run space cell {text}: a pool "
                    "process cannot start partition workers; use --workers 1 "
                    "or partitions=1"
                )
        with mp.Pool(processes=workers) as pool:
            rows = pool.map(_run_cell, payloads, chunksize=1)
    else:
        rows = [_run_cell(p) for p in payloads]
    return {
        "sweep": {
            "grid": grid,
            "cells": len(cells),
            "workers": workers,
            "base_seed": base_seed,
            "telemetry": telemetry,
            "worlds": worlds,
            "worker_pids": sorted({r["worker_pid"] for r in rows}),
        },
        "rows": rows,
    }


def write_results(table: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=False)
        fh.write("\n")


def summarize(table: Dict[str, Any]) -> str:
    """A terminal-friendly one-line-per-cell summary of a sweep table."""
    lines = []
    meta = table["sweep"]
    lines.append(
        f"{meta['cells']} cells, {meta['workers']} workers "
        f"({len(meta['worker_pids'])} distinct pids)"
    )
    for row in table["rows"]:
        cell = " ".join(f"{k}={v}" for k, v in sorted(row["cell"].items()))
        res = row["result"]
        env = row.get("envelope")
        if env:
            g = env["gbps"]
            line = (
                f"  {cell:<40} {g['mean']:8.3f} ± {g['ci95']:.3f} Gbps "
                f"(p50 {g['p50']:.3f}, p99 {g['p99']:.3f})  "
                f"[{row['worlds']} worlds, "
                f"{'vectorized' if row.get('vectorized') else 'scalar'}]"
            )
            lines.append(line)
            continue
        line = (
            f"  {cell:<40} {res['gbps']:8.3f} Gbps  {res['mpps']:7.3f} Mpps  "
            f"{res['delivered_packets']} pkts / {res['cycles']} cycles"
        )
        fp = res.get("extra", {}).get("fabric_fast_path") or row.get(
            "telemetry", {}
        ).get("fabric_fast_path")
        if fp:
            line += f"  [ff {fp['ff_quanta']}q]"
        sp = res.get("extra", {}).get("space_shard") or row.get(
            "telemetry", {}
        ).get("space_shard")
        if sp:
            if sp.get("serial_fallback"):
                line += f"  [space serial: {sp.get('fallback_reason', '?')}]"
            else:
                auto = "auto " if sp.get("partitions_auto") else ""
                line += (
                    f"  [space {auto}P{sp['workers']}, "
                    f"{sum(sp['windows_per_worker'])}w, "
                    f"stall {sum(sp['pipe_stall_s']):.2f}s, "
                    f"{sum(sp['boundary_flits'])} bflits, "
                    f"{sum(sp.get('bytes_moved', []))/1024:.0f}KiB]"
                )
        lines.append(line)
    return "\n".join(lines)
