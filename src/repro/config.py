"""Injectable configuration values: :class:`CostModel` and :class:`SimConfig`.

The thesis's chapter-3 cycle costs are a frozen, picklable dataclass
that is threaded *explicitly* through every engine, so scaling studies
(frequency, FIFO-depth, quantum-size, control-overhead sweeps) vary a
value instead of monkeypatching module globals, and can run
concurrently.  :class:`SimConfig` pairs it with the complete
description of one simulated router (ports, quantum size, clock, FIFO
depths, engine fidelity, seed).

``CostModel()`` (equivalently ``CostModel.default()``) is the thesis's
model; code that needs a default value reads it from there.  Because
both classes are plain frozen values they pickle cleanly, which is what
lets :mod:`repro.sweep` fan a grid of configurations across
``multiprocessing`` workers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class CostModel:
    """The Raw cycle-cost model (thesis chapter 3) as an immutable value.

    Field defaults are the thesis's numbers (the single *calibrated*
    value is :attr:`quantum_ctl_overhead`, fitted once against the
    published Fig 7-1 throughputs; every other number comes straight
    from the thesis text, and ``tests/test_config.py`` pins them).  Derive variants with
    :meth:`replace` -- instances are frozen, hashable, and picklable.
    """

    # Chip-level parameters (section 3.4).
    clock_hz: float = 250e6  #: Raw prototype target frequency, 250 MHz.
    word_bits: int = 32  #: static networks move one 32-bit word per cycle.
    num_tiles: int = 16  #: 4x4 grid (section 3.1).

    # Static network (section 3.3).
    static_hop_cycles: int = 1
    static_fifo_depth: int = 4
    send_to_use_cycles: int = 3

    # Dynamic network (section 3.3).
    dynamic_base_cycles: int = 15
    dynamic_per_hop_cycles: int = 2
    dynamic_max_message_words: int = 32

    # Tile processor (section 3.2) and buffer management (section 4.4).
    net_to_mem_cycles_per_word: int = 2
    mem_to_net_cycles_per_word: int = 1
    cut_through_cycles_per_word: int = 1
    predicted_branch_cycles: int = 1
    mispredicted_branch_cycles: int = 3

    # Memory system (section 3.2).
    dmem_words: int = 8192
    imem_words: int = 8192
    switch_mem_words: int = 8192
    cache_line_bytes: int = 32
    cache_ways: int = 2
    cache_hit_cycles: int = 3
    cache_miss_cycles: int = 54

    # Router phase costs (chapters 5/6).
    header_words: int = 2
    quantum_ctl_overhead: int = 48  #: calibrated, see DESIGN.md section 5.
    max_quantum_words: int = 256
    ingress_header_cycles: int = 20
    lookup_cycles: int = 30

    # ------------------------------------------------------------------
    @property
    def word_bytes(self) -> int:
        return self.word_bits // 8

    @classmethod
    def default(cls) -> "CostModel":
        """The thesis's cost model (a shared immutable instance)."""
        return _DEFAULT

    def replace(self, **changes: Any) -> "CostModel":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    # ------------------------------------------------------------------
    # Unit helpers.
    def bytes_to_words(self, nbytes: int) -> int:
        """Number of network words needed to carry ``nbytes``."""
        return (nbytes + self.word_bytes - 1) // self.word_bytes

    def gbps(self, bits: float, cycles: float) -> float:
        """Throughput in Gbit/s for ``bits`` moved in ``cycles``."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        return bits * self.clock_hz / cycles / 1e9

    def mpps(self, packets: float, cycles: float) -> float:
        """Packet rate in Mpkt/s for ``packets`` forwarded in ``cycles``."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        return packets * self.clock_hz / cycles / 1e6


_DEFAULT = CostModel()

#: Engine fidelities, cheapest first (see DESIGN.md "Engines and
#: configuration"): the quantum-level fabric loop, the space-partitioned
#: multi-chip Clos (token-window workers, DESIGN.md §13), the
#: phase-level pipelined router, and the word-level chip simulation.
FIDELITIES = ("fabric", "space", "router", "wordlevel")


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to build one simulated router, as a value.

    ``quantum_words``, ``clock_hz`` and ``static_fifo_depth`` default to
    ``None`` meaning "whatever :attr:`costs` says"; setting them here
    overrides the cost model without having to spell out a full
    :class:`CostModel` (see :meth:`cost_model`).  Frozen and picklable
    so sweep cells can cross process boundaries.
    """

    ports: int = 4
    quantum_words: Optional[int] = None  #: crossbar transfer block override
    clock_hz: Optional[float] = None  #: clock frequency override
    static_fifo_depth: Optional[int] = None  #: static-network FIFO override
    input_queue_frags: int = 64
    egress_queue_frags: int = 8
    networks: int = 1  #: static networks the allocator may route over
    pipelined: bool = True  #: header/body overlap (sections 5.2/6.5)
    fidelity: str = "fabric"  #: one of :data:`FIDELITIES`
    seed: int = 0
    #: Fabric fidelity only: steady-state cycle detection + fast-forward
    #: for deterministic saturated sources (bit-identical to stepping).
    fast_forward: bool = False
    #: Space fidelity only (DESIGN.md §13/§15): worker-process count for
    #: the token-window partitioned fabric (1 = in-process serial
    #: reference, 0 = adaptive ``min(topology cut width, cpu_count)``)
    #: and the uniform inter-chip channel latency in quanta (= the token
    #: window length).
    partitions: int = 1
    link_latency: int = 4
    costs: CostModel = field(default=_DEFAULT)

    def __post_init__(self):
        if self.ports < 2:
            raise ValueError("a router needs at least 2 ports")
        if self.partitions < 0:
            raise ValueError("partitions must be >= 1 (or 0 for adaptive)")
        if self.link_latency < 1:
            raise ValueError("link_latency must be >= 1 quantum")
        if self.networks not in (1, 2):
            raise ValueError("Raw has one or two static networks")
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; expected one of {FIDELITIES}"
            )

    # ------------------------------------------------------------------
    def cost_model(self) -> CostModel:
        """The effective :class:`CostModel`: :attr:`costs` with this
        config's scalar overrides folded in."""
        overrides: Dict[str, Any] = {}
        if self.quantum_words is not None:
            overrides["max_quantum_words"] = self.quantum_words
        if self.clock_hz is not None:
            overrides["clock_hz"] = self.clock_hz
        if self.static_fifo_depth is not None:
            overrides["static_fifo_depth"] = self.static_fifo_depth
        return self.costs.replace(**overrides) if overrides else self.costs

    def replace(self, **changes: Any) -> "SimConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (cost model inlined as a sub-dict)."""
        d = dataclasses.asdict(self)
        d["costs"] = self.cost_model().to_dict()
        return d


#: Field names accepted by :meth:`SimConfig.replace` (used by the sweep
#: grid parser to route ``key=value`` cells to the right layer).
SIM_CONFIG_FIELDS = frozenset(
    f.name for f in fields(SimConfig) if f.name != "costs"
)
COST_MODEL_FIELDS = frozenset(f.name for f in fields(CostModel))
