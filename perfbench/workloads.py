"""The benchmark's workloads: inputs made from a seed, one engine call per
operation, and the checks every call's simulated output must pass.

Nothing here imports :mod:`repro` at module level, and the module imports
only standard-library modules that :mod:`repro` loads anyway: the set-up
measurement imports it inside its clock, just before ``import repro``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: A seed no tuning run uses; confirm a claimed gain on it as well
#: (``python3 perfbench/run.py --workload W --seed 90210``).
HELD_OUT_SEED = 90210

#: Worlds per ``worlds_imix_n16`` call (``repro sweep --worlds`` scale).
N_WORLDS = 200

#: The budget (quanta or packets) of the set-up measurement's first call.
SMALL_BUDGET = 20


def engine_seed(workload: str, seed: int) -> int:
    """The engine seed for ``workload`` at benchmark seed ``seed``: every
    workload draws its own stream, so one seed gives four unrelated inputs."""
    return zlib.crc32(f"{workload}/{seed}".encode()) % 2**31


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  #: "fabric", "router", "space" or "worlds"
    ports: int
    traffic: str  #: "uniform" (saturated fixed 1024 B) or the "imix" preset
    budget: int  #: quanta (fabric/space/worlds) or packets (router) per call

    def inputs(self, seed: int, small: bool = False) -> Tuple[Any, Any]:
        """``(SimConfig, WorkloadSpec)`` for benchmark seed ``seed``."""
        from repro import SimConfig, WorkloadSpec

        budget = SMALL_BUDGET if small else self.budget
        kw: Dict[str, Any] = (
            {"pattern": "uniform", "packet_bytes": 1024}
            if self.traffic == "uniform"
            else {"traffic": self.traffic}
        )
        if self.engine == "router":
            kw["packets"] = budget
        else:
            kw["quanta"] = budget
        fidelity = "fabric" if self.engine == "worlds" else self.engine
        config = SimConfig(
            ports=self.ports,
            fidelity=fidelity,
            seed=engine_seed(self.name, seed),
            partitions=0 if self.engine == "space" else 1,
        )
        return config, WorkloadSpec(**kw)

    def call(self, inputs: Tuple[Any, Any]):
        """One operation: the engine call users make for this workload."""
        config, workload = inputs
        if self.engine == "worlds":
            from repro.parallel.manyworlds import run_worlds

            return run_worlds(config, workload, N_WORLDS)
        from repro import run_config

        return run_config(config, workload)

    # -- output checks ------------------------------------------------------
    def fingerprint(self, result) -> Tuple:
        """The simulated statistics, which every repetition must repeat."""
        if self.engine == "worlds":
            return (result.vectorized,) + tuple(_stats_key(s) for s in result.stats)
        return _result_key(result)

    def check(self, result) -> List[str]:
        """Checks one call's output on its own."""
        if self.engine == "worlds":
            results = [result.world_result(w) for w in range(result.n_worlds)]
            if not result.vectorized:
                return [f"worlds fell back to scalar: {result.fallback_reason}"]
        else:
            results = [result]
        problems = []
        for r in results:
            if sum(r.per_port_packets) != r.delivered_packets:
                problems.append(
                    f"sum(per_port_packets)={sum(r.per_port_packets)} != "
                    f"delivered_packets={r.delivered_packets}"
                )
            if r.delivered_packets <= 0 or r.cycles <= 0:
                problems.append("nothing delivered")
        return problems

    def reference_checks(self, inputs, result, seed: int) -> List[Tuple[str, Callable]]:
        """Engine calls that check ``result`` against a second, simpler path:
        ``[(label, fn)]`` where ``fn()`` runs the reference and returns its
        problems."""
        config, workload = inputs
        from repro import run_config

        if self.engine == "space":
            def serial():
                ref = run_config(config.replace(partitions=1), workload)
                return _compare(_result_key(ref), _result_key(result), "partitions=1")

            return [("space partitions=1 reference", serial)]
        if self.engine == "worlds":
            from repro.seeds import world_seed

            def world(w: int):
                def fn():
                    ref = run_config(
                        config.replace(seed=world_seed(config.seed, w)), workload
                    )
                    return _compare(
                        _result_key(ref), _result_key(result.world_result(w)),
                        f"scalar world {w}",
                    )

                return fn

            sampled = 1 + zlib.crc32(f"world/{seed}".encode()) % (N_WORLDS - 1)
            return [(f"world {w} scalar reference", world(w)) for w in (0, sampled)]
        return []

    def outputs(self, result) -> Dict[str, Any]:
        """Simulated outputs to print (checked, not gated)."""
        if self.engine == "worlds":
            env = result.envelope("gbps")
            return {
                "worlds": result.n_worlds,
                "vectorized": result.vectorized,
                "gbps_mean": round(env["mean"], 6),
                "gbps_ci95": round(env["ci95"], 6),
                "world0_delivered_packets": result.world0.delivered_packets,
            }
        out = {
            "cycles": result.cycles,
            "delivered_packets": result.delivered_packets,
            "delivered_words": result.delivered_words,
            "gbps": round(result.gbps, 6),
        }
        if result.latency:
            out["latency_p50_cycles"] = result.latency["p50_cycles"]
            out["latency_p99_cycles"] = round(result.latency["p99_cycles"], 3)
        if "space_shard" in result.extra:
            out["workers"] = result.extra["space_shard"]["workers"]
        return out


def _stats_key(st) -> Tuple:
    return (
        st.cycles, st.quanta, st.idle_quanta, st.blocked_events,
        st.delivered_packets, st.delivered_words, tuple(st.per_port_packets),
    )


def _result_key(r) -> Tuple:
    extra = tuple(r.extra.get(k) for k in ("quanta", "idle_quanta", "blocked_events"))
    return (
        r.cycles, r.delivered_packets, r.delivered_words, r.gbps, r.mpps,
        tuple(r.per_port_packets), tuple(sorted(r.latency.items())), extra,
    )


def _compare(ref: Tuple, got: Tuple, label: str) -> List[str]:
    return [] if ref == got else [f"differs from the {label} run: {got} != {ref}"]


#: Closed loop, one client: each workload's calls run back to back in one
#: process.  Rationale per workload (layers loaded / bypassed, workers):
#:
#: * fabric_uniform_n16 -- legacy-trio fabric path, uncached allocator
#:   (~88% of FabricSimulator.run) and shared np.random draws; no kernel,
#:   no ip, no workers.  The workload an allocator change must move.
#: * router_imix_n4 -- the paper's 4-port prototype under IMIX (58% of
#:   packets are 64 B, where per-packet work dominates): sim.kernel stage
#:   processes, packet synthesis and ip lookup dominate, the allocator is
#:   ~16%; no workers.
#: * space_clos_n64 -- 64-port Clos of 8-port chips, partitions=0 (the
#:   engine picks min(8 middle chips, cpu_count) workers, 2 on a 2-core
#:   host) over pipes: the only path through parallel.space_shard and
#:   parallel.transport; serially it is ~72% allocator over 24 chips.
#: * worlds_imix_n16 -- parallel.manyworlds numpy lanes (200 worlds): never
#:   calls the scalar allocator, so allocator changes predict no change.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fabric_uniform_n16", "fabric", 16, "uniform", budget=1000),
        Workload("router_imix_n4", "router", 4, "imix", budget=2360),
        Workload("space_clos_n64", "space", 64, "uniform", budget=200),
        Workload("worlds_imix_n16", "worlds", 16, "imix", budget=300),
    )
}
