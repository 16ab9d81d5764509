"""Baselines and case-study comparators.

* :mod:`repro.baselines.click` -- the Click modular software router on a
  general-purpose PC (the thesis's Fig 7-1 comparison point, ~0.23 Gbps).
* :mod:`repro.baselines.cellsim` / :mod:`repro.baselines.schedulers` --
  slot-level VOQ crossbar with iSLIP / PIM (the Cisco GSR backplane of
  section 2.2.2), the FIFO input-queued switch (HOL-limited to ~58.6%),
  and the ideal output-queued switch.
* :mod:`repro.baselines.cells` -- fixed-size cells versus variable-length
  packets across the backplane (the ~100% vs ~60% claim of section 2.2.2).
"""

from repro.baselines.click import (
    ClickRouter,
    ClickResult,
    standard_ip_router,
    CLICK_CPU_HZ,
)
from repro.baselines.schedulers import iSLIPScheduler, PIMScheduler
from repro.baselines.cellsim import (
    VOQSwitch,
    FIFOSwitch,
    OutputQueuedSwitch,
    SwitchResult,
)
from repro.baselines.cells import CellModeBackplane, PacketModeBackplane

__all__ = [
    "ClickRouter",
    "ClickResult",
    "standard_ip_router",
    "CLICK_CPU_HZ",
    "iSLIPScheduler",
    "PIMScheduler",
    "VOQSwitch",
    "FIFOSwitch",
    "OutputQueuedSwitch",
    "SwitchResult",
    "CellModeBackplane",
    "PacketModeBackplane",
]
