"""Declarative fault plans: what breaks, where, and at which cycle.

A :class:`FaultPlan` is a frozen, picklable schedule of
:class:`FaultEvent` values, sorted by injection cycle.  Plans are
*deterministic by construction*: the same plan applied to the same
seeded simulation produces bit-identical results, which is what makes
chaos runs regression-testable.  Plans load from / dump to JSON
(``python -m repro chaos --plan faults.json``) and ride along a
:class:`~repro.engines.WorkloadSpec` (its ``fault_plan`` field) so the
sweep runner can fan fault grids across processes.

Fault kinds (the failure modes FlexCross/Tiny Tera-class fabrics
design for):

``link_down``
    A channel carries no words during ``[cycle, cycle + duration)``:
    words in flight are held, puts back-pressure.  Two short events
    model a flapping link.
``corrupt``
    Single-word corruption: the word in flight on the target channel at
    ``cycle`` gets bit ``param`` flipped (header corruption at the
    phase level; a payload word at the word level).  Detected
    downstream by the IP header checksum.
``stall``
    A tile/switch processor wedges for ``duration`` cycles: modeled as
    the target port's ingress feed going quiet (its channel is down).
``token_loss``
    The Rotating Crossbar's token is lost at ``cycle``; the fabric
    detects it by timeout and regenerates it at port 0
    (:class:`repro.faults.recovery.TokenRecovery`).
``port_down``
    A port dies permanently at ``cycle`` (``duration`` ignored): its
    line card stops being served and the scheduler masks it out;
    traffic routed *to* it is rerouted to the next live port once the
    routing layer reconverges (degraded mode).
``overload``
    The target port's egress line card is overrun for ``duration``
    cycles (its drain stops); upstream queues fill and, in line-card
    mode, excess arrivals drop externally -- the thesis's section-4.4
    dropping assumption under stress.

Targets are small strings resolved per engine:

* ``"port:<i>"`` -- port-scoped kinds (``stall``, ``port_down``,
  ``overload``);
* ``"input:<i>"`` / ``"egress:<i>"`` / ``"grant:<i>"`` /
  ``"line:<i>"`` -- the named queues/links of port ``i``;
* ``"link:<name>"`` -- a raw static-network channel by its kernel name
  (word-level only, e.g. ``"link:sn1.t5->t6"``);
* ``"token"`` -- the rotating token.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

#: The supported failure modes, in documentation order.
FAULT_KINDS = (
    "link_down",
    "corrupt",
    "stall",
    "token_loss",
    "port_down",
    "overload",
)

#: Kinds whose effect is a time window (need ``duration > 0``).
WINDOW_KINDS = frozenset({"link_down", "stall", "overload"})

PLAN_SCHEMA = "repro-fault-plan/1"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``cycle`` is in simulated cycles on the engine's clock; ``duration``
    is the window length for windowed kinds; ``param`` is kind-specific
    (the bit index to flip for ``corrupt``).
    """

    cycle: int
    kind: str
    target: str = ""
    duration: int = 0
    param: int = 0

    def __post_init__(self):
        if self.cycle < 0:
            raise ValueError("fault cycle must be >= 0")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.kind in WINDOW_KINDS and self.duration < 1:
            raise ValueError(f"{self.kind} fault needs duration >= 1")
        if self.duration < 0:
            raise ValueError("fault duration must be >= 0")
        if self.kind == "token_loss":
            object.__setattr__(self, "target", "token")

    @property
    def end(self) -> int:
        """First cycle after the fault's effect window (== ``cycle``
        for instantaneous kinds)."""
        return self.cycle + self.duration

    @property
    def port(self) -> Optional[int]:
        """The port index when the target is port-scoped, else None."""
        prefix, _, rest = self.target.partition(":")
        if prefix in ("port", "input", "egress", "grant", "line") and rest.isdigit():
            return int(rest)
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "target": self.target,
            "duration": self.duration,
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultEvent":
        if not isinstance(d, dict) or "cycle" not in d or "kind" not in d:
            raise ValueError(f"a fault event needs a cycle and a kind, got {d!r}")
        return cls(
            cycle=int(d["cycle"]),
            kind=str(d["kind"]),
            target=str(d.get("target", "")),
            duration=int(d.get("duration", 0)),
            param=int(d.get("param", 0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, cycle-sorted schedule of faults.

    Frozen and picklable (it travels inside
    :class:`~repro.engines.WorkloadSpec` across ``multiprocessing``
    workers); hashable, so it composes with the frozen
    :class:`~repro.config.SimConfig` in caches and sweep cells.
    """

    events: Tuple[FaultEvent, ...] = ()
    name: str = ""
    seed: int = 0

    def __post_init__(self):
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.cycle, e.kind, e.target))
        )
        object.__setattr__(self, "events", ordered)

    # -- construction ---------------------------------------------------
    @classmethod
    def empty(cls, name: str = "empty") -> "FaultPlan":
        """A plan with no faults: runs must be bit-identical to no plan."""
        return cls(events=(), name=name)

    # -- JSON round-trip ------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(d, dict):
            raise ValueError(f"a fault plan is a JSON object, not {type(d).__name__}")
        schema = d.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ValueError(f"unknown fault-plan schema {schema!r}")
        return cls(
            events=tuple(FaultEvent.from_dict(e) for e in d.get("events", ())),
            name=str(d.get("name", "")),
            seed=int(d.get("seed", 0)),
        )

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        """Truthiness means "has at least one fault": an empty plan must
        behave exactly like no plan at all."""
        return bool(self.events)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({e.kind for e in self.events}))

    def boundaries(self) -> Tuple[int, ...]:
        """Every cycle at which a fault's effect starts or ends, sorted.
        The burst fallback gate keys off these."""
        out = set()
        for e in self.events:
            out.add(e.cycle)
            out.add(e.end)
        return tuple(sorted(out))


#: Things engines accept as a fault plan: a plan, its dict form, a JSON
#: path, or None.
PlanLike = Union["FaultPlan", Dict[str, Any], str, None]


def load_plan(path: str) -> FaultPlan:
    """Load a plan from a JSON file (alias of :meth:`FaultPlan.from_json`)."""
    return FaultPlan.from_json(path)


def resolve_plan(spec: PlanLike) -> Optional[FaultPlan]:
    """Normalize any accepted plan spec to a :class:`FaultPlan` or None.

    None and the *empty* plan both resolve to None: an engine given
    either must run its unmodified fault-free fast path, which is what
    keeps the golden numbers bit-for-bit stable.
    """
    if spec is None:
        return None
    if isinstance(spec, FaultPlan):
        return spec if spec else None
    if isinstance(spec, dict):
        plan = FaultPlan.from_dict(spec)
        return plan if plan else None
    if isinstance(spec, str):
        plan = FaultPlan.from_json(spec)
        return plan if plan else None
    raise TypeError(f"cannot resolve a fault plan from {type(spec).__name__}")
