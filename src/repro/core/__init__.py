"""The paper's contribution: the Rotating Crossbar and its scheduler.

* :mod:`repro.core.ring` -- crossbar ring geometry: clockwise /
  counterclockwise paths, link resources, expansion numbers.
* :mod:`repro.core.token` -- the rotating token (plus the weighted
  variant that implements QoS, thesis sections 5.4/8.7).
* :mod:`repro.core.allocator` -- the per-quantum allocation rule: in
  token order, connect each requesting Ingress Processor to its Egress
  Processor over free directed ring links, clockwise first.
* :mod:`repro.core.config_space` -- the configuration space of thesis
  chapter 6: the naive |Hdr|^4 x |Token| = 2,500 enumeration and the
  client/server minimization down to a few dozen local configurations.
* :mod:`repro.core.scheduler` -- the three-pass compile-time scheduler
  (reservation walk, minimization, codegen to Raw-like switch assembly).
* :mod:`repro.core.phases` -- the per-quantum phase timing of Fig 6-2.
* :mod:`repro.core.deadlock` -- wait-for-graph checker proving emitted
  schedules cannot deadlock the static network (section 5.5).
* :mod:`repro.core.fairness` -- starvation bounds and fairness metrics
  (section 5.4).
* :mod:`repro.core.multicast` / :mod:`repro.core.compute` -- the
  future-work extensions (sections 8.6 and 8.3) implemented.
"""

from repro.core.ring import RingGeometry, Path, Link, CW, CCW
from repro.core.token import RotatingToken, WeightedToken
from repro.core.allocator import Allocator, Allocation, Grant, Request
from repro.core.config_space import (
    ConfigurationSpace,
    LocalConfig,
    GlobalConfig,
    EMPTY,
)
from repro.core.scheduler import CompileTimeScheduler, CompiledSchedule
from repro.core.phases import PhaseTiming, quantum_cycles
from repro.core.deadlock import check_allocation_deadlock_free, wait_for_graph
from repro.core.fairness import FairnessReport, analyze_service, jains_index
from repro.core.fabricsim import (
    FabricSimulator,
    FabricStats,
    saturated_permutation,
)
from repro.core.multicast import (
    MulticastAllocator,
    MulticastAllocation,
    MulticastGrant,
    MulticastRequest,
)
from repro.core.asmparse import parse_listing, make_resolver, AsmParseError
from repro.core.compute import (
    StreamTransform,
    Identity,
    XorCipher,
    ByteSwap,
    RunningChecksum,
)

__all__ = [
    "RingGeometry",
    "Path",
    "Link",
    "CW",
    "CCW",
    "RotatingToken",
    "WeightedToken",
    "Allocator",
    "Allocation",
    "Grant",
    "Request",
    "ConfigurationSpace",
    "LocalConfig",
    "GlobalConfig",
    "EMPTY",
    "CompileTimeScheduler",
    "CompiledSchedule",
    "PhaseTiming",
    "quantum_cycles",
    "check_allocation_deadlock_free",
    "wait_for_graph",
    "FairnessReport",
    "analyze_service",
    "jains_index",
    "FabricSimulator",
    "FabricStats",
    "saturated_permutation",
    "MulticastAllocator",
    "MulticastAllocation",
    "MulticastGrant",
    "MulticastRequest",
    "parse_listing",
    "make_resolver",
    "AsmParseError",
    "StreamTransform",
    "Identity",
    "XorCipher",
    "ByteSwap",
    "RunningChecksum",
]
