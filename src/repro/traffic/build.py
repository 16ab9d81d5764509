"""``traffic.build``: the source factories every engine builds through.

Every engine draws its packets from one of two per-port models: the
counter-based :class:`~repro.traffic.model.SpecModel` for a synthetic
:class:`~repro.traffic.spec.TrafficSpec` and
:class:`~repro.traffic.replay.TraceReplay` for a recorded trace.  This
module wraps that model in the engine-specific adapter.  Counter-based
draws are what let the space engine split a workload's ports across
partitions (`{"kind": "traffic", ...}` in
:class:`~repro.parallel.space_shard.SpaceSpec`) and the many-worlds
lanes reproduce a scalar run's draws.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Tuple

from repro.config import CostModel, SimConfig
from repro.traffic.model import SpecModel, TrafficModel
from repro.traffic.replay import TraceReplay
from repro.traffic.spec import TrafficLike, TrafficSpec, resolve_traffic


# ---------------------------------------------------------------------------
# Fabric (quantum-level) fidelity.
# ---------------------------------------------------------------------------
class FabricModelSource:
    """Adapt a TrafficModel to the fabric PortSource protocol
    (destination + word count per poll)."""

    def __init__(self, model: TrafficModel, costs: CostModel):
        self.model = model
        self.costs = costs
        self.deterministic = bool(getattr(model, "deterministic", False))
        # Bound once: every admission of every engine polls through here.
        self._next_packet = model.next_packet
        self._bytes_to_words = costs.bytes_to_words

    def __call__(self, port: int) -> Optional[Tuple[int, int]]:
        drawn = self._next_packet(port)
        if drawn is None:
            return None
        dest, nbytes = drawn
        return dest, self._bytes_to_words(nbytes)


def fabric_source(spec: TrafficLike, config: SimConfig):
    """A fabric PortSource for ``spec`` under ``config``.

    A saturated fixed-size spec gets the model's own ``(dest, words)``
    draw, its size converted to words once; any other spec polls the
    model through :class:`FabricModelSource`.
    """
    spec = resolve_traffic(spec)
    if spec is None:
        raise ValueError("fabric_source needs a traffic spec")
    costs = config.cost_model()
    if spec.kind == "replay":
        model = TraceReplay(spec.trace, n=config.ports, loop=spec.loop)
        return FabricModelSource(model, costs)
    model = SpecModel(spec, n=config.ports, seed=config.seed)
    if spec.sizes.kind == "fixed" and not model.gate:
        source = model._fixed(costs.bytes_to_words(spec.sizes.bytes))
        source.deterministic = model.deterministic
        return source
    return FabricModelSource(model, costs)


def shard_source(spec: TrafficLike, seed: int = 0) -> dict:
    """The ``SpaceSpec.source`` dict for a traffic spec."""
    resolved = resolve_traffic(spec)
    if resolved is None:
        raise ValueError("shard_source needs a traffic spec")
    return {"kind": "traffic", "json": resolved.to_json(), "seed": seed}


def fabric_source_for_shard(source_dict: dict, ports: int, costs: CostModel):
    """Build a space partition's source from a ``SpaceSpec`` ``traffic``
    entry (the ``"json"`` form :func:`shard_source` writes)."""
    if "json" not in source_dict:
        raise ValueError("traffic source needs a 'json' entry")
    spec = TrafficSpec.from_dict(json.loads(source_dict["json"]))
    seed = int(source_dict.get("seed", 0))
    return fabric_source(spec, SimConfig(ports=ports, costs=costs, seed=seed))


# ---------------------------------------------------------------------------
# Router (phase-level) fidelity.
# ---------------------------------------------------------------------------
def router_traffic(spec: TrafficLike, config: SimConfig):
    """(TrafficModel, PacketFactory, offered_load) for the router engine.

    ``offered_load`` is None for saturated specs (attach via
    ``attach_saturated``); otherwise the line-card path paces the
    pattern/size stream at the arrival process's mean load in simulated
    time (``attach_linecards``), since the kernel-process ingress treats
    a None supply as end-of-stream rather than an idle poll.
    """
    from repro.traffic.workload import PacketFactory

    spec = resolve_traffic(spec)
    if spec is None:
        raise ValueError("router_traffic needs a traffic spec")
    n = config.ports
    # The factory is the only reader of its generator (the line cards
    # draw from their own), so it owns one and draws addresses in blocks.
    factory = PacketFactory(n, config.seed)
    if spec.kind == "replay":
        return TraceReplay(spec.trace, n=n, loop=spec.loop), factory, None
    if spec.arrivals.kind == "saturated":
        return SpecModel(spec, n=n, seed=config.seed), factory, None
    # Paced: strip the arrival gate (line cards pace in simulated time).
    model = SpecModel(spec, n=n, seed=config.seed, gate_arrivals=False)
    return model, factory, spec.arrivals.load


# ---------------------------------------------------------------------------
# Word-level fidelity.
# ---------------------------------------------------------------------------
class WordModelSource:
    """Adapt a (saturated) TrafficModel to the word-level WordSource
    protocol: mint a real IPv4 packet per poll, addressed to the
    destination's quarter of the address space."""

    def __init__(self, model: TrafficModel, max_bytes: int):
        self.model = model
        self.max_bytes = max_bytes
        self._count = 0

    def __call__(self, port: int):
        from repro.ip.packet import IPv4Packet

        drawn = self.model.next_packet(port)
        if drawn is None:
            raise RuntimeError(
                "word-level source ran dry: the word-level model needs a "
                "saturated traffic model (loop replay traces)"
            )
        dest, nbytes = drawn
        self._count += 1
        pkt = IPv4Packet.synthesize(
            src=(10 << 24) | port,
            dst=(dest << 30) | self._count % (1 << 24),
            size_bytes=nbytes,
            ident=self._count,
        )
        return dest, pkt


def wordlevel_source(spec: TrafficLike, config: SimConfig):
    """A word-level WordSource for ``spec`` (4 ports, saturated,
    single-quantum packets -- the model's standing restrictions)."""
    spec = resolve_traffic(spec)
    if spec is None:
        raise ValueError("wordlevel_source needs a traffic spec")
    n = config.ports
    costs = config.cost_model()
    max_bytes = costs.max_quantum_words * costs.word_bytes
    if spec.kind == "replay":
        # Saturated-only engine: loop the trace so it never runs dry.
        model = TraceReplay(spec.trace, n=n, loop=True)
        return WordModelSource(model, max_bytes)
    if spec.arrivals.kind != "saturated":
        raise ValueError(
            "the word-level engine is saturated-only; arrival processes "
            "apply at fabric/router fidelity"
        )
    if spec.sizes.max_bytes() > max_bytes:
        raise ValueError(
            f"word-level packets are single-quantum: size distribution "
            f"reaches {spec.sizes.max_bytes()}B > {max_bytes}B"
        )
    return WordModelSource(SpecModel(spec, n=n, seed=config.seed), max_bytes)


# ---------------------------------------------------------------------------
# Baselines (cell switches / backplanes).
# ---------------------------------------------------------------------------
def slot_arrivals(n: int, rng):
    """Per-slot iid arrivals for the cell-switch baselines, in the
    historical shared-generator draw order (the chapter-2 experiments
    are seeded on it)."""
    from repro.traffic.arrivals import IIDSlotArrivals

    return IIDSlotArrivals(n, rng)


def size_distribution(sizes: Any, rng=None):
    """Normalize a SizeDistribution | SizeSpec | spec dict to a
    SizeDistribution (the backplane baselines' constructor contract)."""
    import numpy as np

    from repro.traffic.sizes import (
        BimodalSizes,
        FixedSize,
        IMix,
        SizeDistribution,
        UniformSizes,
    )
    from repro.traffic.spec import SizeSpec

    if isinstance(sizes, SizeDistribution):
        return sizes
    if isinstance(sizes, dict):
        sizes = SizeSpec(**sizes)
    if not isinstance(sizes, SizeSpec):
        raise TypeError(
            f"cannot build a size distribution from {type(sizes).__name__}"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    if sizes.kind == "fixed":
        return FixedSize(sizes.bytes)
    if sizes.kind == "imix":
        return IMix(rng)
    if sizes.kind == "uniform":
        return UniformSizes(rng, sizes.lo, sizes.hi)
    return BimodalSizes(rng, sizes.small, sizes.large, p_small=sizes.p_small)
