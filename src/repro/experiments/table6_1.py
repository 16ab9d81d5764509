"""Chapter 6 artifacts: configuration space, minimization, IMEM fit.

Reproduces the arithmetic of sections 6.1-6.2 and Table 6.1: the naive
|Hdr|^4 x |Token| = 2,500 space leaves ~3.3 switch instructions per
configuration; projecting onto per-tile client/server configurations
collapses it to a few dozen entries that comfortably fit the 8,192-word
switch memory.  The thesis reports 32 entries (78x); our allocator's
reachable set measures 27 (92.6x) -- same order, the delta is in the
scheduler-specific details ("not all possible configurations are used
by the compile-time scheduler").
"""

from __future__ import annotations

from repro.core.ring import RingGeometry
from repro.core.scheduler import CompileTimeScheduler
from repro.experiments import paperdata
from repro.experiments.common import ExperimentResult
from repro.config import CostModel


def run(num_ports: int = 4) -> ExperimentResult:
    ring = RingGeometry(num_ports)
    scheduler = CompileTimeScheduler(ring)
    schedule = scheduler.compile()
    minimization = schedule.minimization

    result = ExperimentResult(
        name="table6_1",
        description="Configuration space and its minimization (sections 6.1-6.2)",
    )
    result.add(
        "global_space",
        minimization.global_size,
        paperdata.CONFIG_SPACE if num_ports == 4 else None,
    )
    result.add(
        "instr_per_naive_config",
        CostModel.default().imem_words / minimization.global_size,
        paperdata.INSTR_PER_NAIVE_CONFIG if num_ports == 4 else None,
    )
    result.add(
        "minimized_configs",
        minimization.minimized_size,
        paperdata.MINIMIZED_CONFIGS if num_ports == 4 else None,
    )
    result.add(
        "reduction_factor",
        minimization.reduction_factor,
        paperdata.REDUCTION_FACTOR if num_ports == 4 else None,
    )
    result.add("reachable_global_allocations", minimization.reachable_global)
    imem = schedule.imem_words_per_tile()
    result.add("switch_imem_words_used", imem)
    result.add("fits_switch_imem", schedule.fits_imem())
    result.notes = (
        f"clients/servers per Table 6.1: servers=(out, cwnext, ccwnext), "
        f"clients=(0, in, cwprev, ccwprev); generated switch code uses "
        f"{imem} of {CostModel.default().switch_mem_words} switch-memory words."
    )
    return result
