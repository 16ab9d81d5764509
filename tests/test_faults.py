"""The fault-injection subsystem: determinism, recovery, degraded mode.

Three properties anchor everything here:

* **No-fault identity** -- an empty plan (or no plan) leaves every
  engine's results bit-for-bit unchanged: the fault-free fast path is
  not perturbed by the subsystem existing.
* **Determinism** -- the same seed and the same plan give identical
  results on repeat runs, and on the word-level engine the burst and
  word-at-a-time paths stay cycle-identical *through* fault windows.
* **Bounded recovery** -- token loss regenerates within a fixed
  protocol, a dead port degrades throughput proportionally (within 5%
  of a genuine 3-port run) and never deadlocks.
"""

import json

import pytest

from repro.config import SimConfig
from repro.engines import WorkloadSpec, run_config
from repro.faults import FaultEvent, FaultPlan, load_plan, resolve_plan
from repro.sim import Channel, DeadlockError, Get, Put, Simulator, Timeout


# ---------------------------------------------------------------------------
# Plans: validation, JSON round-trip, seeded generation.
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_events_sorted_and_frozen(self):
        plan = FaultPlan(
            events=(
                FaultEvent(cycle=500, kind="corrupt", target="input:1"),
                FaultEvent(cycle=100, kind="link_down", target="input:0", duration=50),
            )
        )
        assert [e.cycle for e in plan.events] == [100, 500]
        with pytest.raises(Exception):
            plan.events = ()

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(cycle=-1, kind="corrupt")
        with pytest.raises(ValueError):
            FaultEvent(cycle=0, kind="not_a_kind")
        with pytest.raises(ValueError):
            FaultEvent(cycle=0, kind="link_down", duration=0)  # windowed
        # token_loss always targets the token.
        assert FaultEvent(cycle=0, kind="token_loss").target == "token"

    def test_port_parsing(self):
        assert FaultEvent(cycle=0, kind="stall", target="port:2", duration=1).port == 2
        assert FaultEvent(cycle=0, kind="corrupt", target="input:3").port == 3
        assert FaultEvent(cycle=0, kind="corrupt", target="link:sn1.t5->t6").port is None

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            events=(
                FaultEvent(cycle=10, kind="link_down", target="input:0", duration=20),
                FaultEvent(cycle=40, kind="corrupt", target="input:1", param=5),
                FaultEvent(cycle=70, kind="token_loss"),
            ),
            name="round-trip",
            seed=7,
        )
        path = str(tmp_path / "plan.json")
        plan.to_json(path)
        again = load_plan(path)
        assert again == plan
        with open(path) as fh:
            assert json.load(fh)["schema"] == "repro-fault-plan/1"

    def test_resolve_plan_normalizes(self, tmp_path):
        assert resolve_plan(None) is None
        assert resolve_plan(FaultPlan.empty()) is None
        plan = FaultPlan(events=(FaultEvent(cycle=1, kind="token_loss"),))
        assert resolve_plan(plan) is plan
        assert resolve_plan(plan.to_dict()) == plan
        path = str(tmp_path / "p.json")
        plan.to_json(path)
        assert resolve_plan(path) == plan
        with pytest.raises(TypeError):
            resolve_plan(42)

    def test_boundaries_and_windows(self):
        plan = FaultPlan(
            events=(
                FaultEvent(cycle=100, kind="link_down", target="input:0", duration=50),
                FaultEvent(cycle=300, kind="corrupt", target="input:1"),
            )
        )
        assert plan.boundaries() == (100, 150, 300)


# ---------------------------------------------------------------------------
# Channel-level fault mechanics.
# ---------------------------------------------------------------------------
class TestChannelFaults:
    def test_down_holds_words_and_blocks_puts(self):
        sim = Simulator()
        ch = sim.channel("ch", capacity=4, latency=1)
        got = []

        def producer():
            yield Put(ch, 1)
            yield Put(ch, 2)

        def consumer():
            got.append((yield Get(ch)))
            got.append((yield Get(ch)))

        def saboteur():
            yield Timeout(1)
            ch.fault_down(until=50)
            yield Timeout(49)
            ch.fault_restore()
            sim._service_channel(ch)

        sim.add_process(producer(), "prod")
        sim.add_process(consumer(), "cons")
        sim.add_process(saboteur(), "chaos")
        sim.run(raise_on_deadlock=False)
        assert got == [1, 2]
        assert sim.now >= 50  # nothing crossed the link during the window

    def test_corrupt_head(self):
        ch = Channel("ch", capacity=2)
        assert ch.fault_corrupt_head(lambda v: v ^ 1) == (False, None)  # empty
        ch.push(0b1010, now=0)
        hit, value = ch.fault_corrupt_head(lambda v: v ^ 1)
        assert (hit, value) == (True, 0b1011)

    def test_restore_is_idempotent(self):
        ch = Channel("ch", capacity=3)
        assert ch.fault_restore() is False  # not down
        ch.fault_down(until=10)
        assert ch.capacity == 0 and ch.fault_active
        assert ch.fault_restore() is True
        assert ch.capacity == 3 and not ch.fault_active


# ---------------------------------------------------------------------------
# DeadlockError enrichment (satellite: per-channel occupancy + cycles).
# ---------------------------------------------------------------------------
class TestDeadlockReport:
    def test_message_names_channels_and_block_cycles(self):
        sim = Simulator()
        a = sim.channel("chan-a")
        b = sim.channel("chan-b")

        def p1():
            yield Timeout(7)
            yield Get(a)
            yield Put(b, 1)

        def p2():
            yield Get(b)
            yield Put(a, 1)

        sim.add_process(p1(), name="p-one")
        sim.add_process(p2(), name="p-two")
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        msg = str(exc.value)
        assert "chan-a" in msg and "chan-b" in msg
        assert "p-one" in msg and "p-two" in msg
        assert "blocked since cycle 7" in msg  # p-one parked after its timeout
        assert "blocked since cycle 0" in msg
        assert "0/1 words" in msg  # occupancy/capacity of the empty channels
        assert len(exc.value.blocked) == 2


# ---------------------------------------------------------------------------
# Engine-level: empty-plan identity and run determinism.
# ---------------------------------------------------------------------------
def _result_key(res):
    return (
        res.cycles,
        res.delivered_packets,
        res.delivered_words,
        res.gbps,
        tuple(res.per_port_packets),
    )


MIXED_PLAN = FaultPlan(
    events=(
        FaultEvent(cycle=40_000, kind="link_down", target="input:1", duration=3_000),
        FaultEvent(cycle=50_000, kind="corrupt", target="input:2", param=4),
        FaultEvent(cycle=60_000, kind="token_loss"),
    ),
    name="mixed",
)


class TestEngineIdentityAndDeterminism:
    @pytest.mark.parametrize(
        "config,workload",
        [
            (SimConfig(seed=1), WorkloadSpec(pattern="uniform", quanta=400)),
            (
                SimConfig(fidelity="router", seed=1),
                WorkloadSpec(pattern="uniform", packets=150),
            ),
            (
                SimConfig(fidelity="wordlevel", seed=1),
                WorkloadSpec(cycles=20_000, warmup_cycles=4_000),
            ),
        ],
        ids=["fabric", "router", "wordlevel"],
    )
    def test_empty_plan_bit_identical(self, config, workload):
        plain = run_config(config, workload)
        empty = run_config(config, workload.replace(fault_plan=FaultPlan.empty()))
        assert _result_key(plain) == _result_key(empty)
        assert "resilience" not in empty.extra

    @pytest.mark.parametrize(
        "config,workload",
        [
            (
                SimConfig(seed=5),
                WorkloadSpec(pattern="uniform", quanta=500, fault_plan=MIXED_PLAN),
            ),
            (
                SimConfig(fidelity="router", seed=5),
                WorkloadSpec(
                    pattern="uniform",
                    packets=200,
                    fault_plan=FaultPlan(
                        events=(
                            FaultEvent(cycle=35_000, kind="link_down",
                                       target="input:1", duration=2_000),
                            FaultEvent(cycle=40_000, kind="corrupt",
                                       target="input:2", param=4),
                        ),
                        name="phase-det",
                    ),
                ),
            ),
        ],
        ids=["fabric", "router"],
    )
    def test_same_seed_same_plan_is_deterministic(self, config, workload):
        a = run_config(config, workload)
        b = run_config(config, workload)
        assert _result_key(a) == _result_key(b)
        assert a.extra["resilience"] == b.extra["resilience"]
        assert a.extra["resilience"]["faults_injected"] == len(workload.fault_plan)

    def test_workload_dict_round_trips_plan(self):
        wl = WorkloadSpec(fault_plan=MIXED_PLAN)
        d = wl.to_dict()
        assert d["fault_plan"]["schema"] == "repro-fault-plan/1"
        assert resolve_plan(d["fault_plan"]) == MIXED_PLAN


# ---------------------------------------------------------------------------
# Word-level: burst/non-burst identity through fault windows.
# ---------------------------------------------------------------------------
class TestWordLevelFaults:
    PLAN = FaultPlan(
        events=(
            FaultEvent(cycle=4_000, kind="link_down", target="input:1", duration=500),
            FaultEvent(cycle=7_000, kind="corrupt", target="input:2", param=7),
            FaultEvent(cycle=9_000, kind="stall", target="egress:0", duration=300),
        ),
        name="wl",
    )

    @staticmethod
    def _run(use_bursts, plan, cycles=14_000):
        from repro.config import SimConfig
        from repro.router.wordlevel import WordLevelRouter
        from repro.traffic.build import wordlevel_source
        from repro.traffic.spec import spec_from_legacy

        source = wordlevel_source(spec_from_legacy("permutation", 256),
                                  SimConfig())
        router = WordLevelRouter(source, use_bursts=use_bursts, faults=plan)
        res = router.run(cycles)
        return router, res

    def test_bursts_identical_through_fault_windows(self):
        rb, burst = self._run(True, self.PLAN)
        rw, word = self._run(False, self.PLAN)
        assert (
            burst.delivered_packets,
            burst.delivered_words,
            burst.per_port_packets,
            burst.cycles,
        ) == (
            word.delivered_packets,
            word.delivered_words,
            word.per_port_packets,
            word.cycles,
        )
        assert rb.resilience.to_dict() == rw.resilience.to_dict()

    def test_corruption_detected_at_line_card(self):
        router, _ = self._run(True, self.PLAN)
        assert router.corrupt_drops == 1
        assert router.resilience.drops == {"corrupt": 1}
        assert router.resilience.faults_missed == 0
        assert router.resilience.unrecovered == 0

    def test_rejects_unsupported_kinds(self):
        plan = FaultPlan(events=(FaultEvent(cycle=100, kind="token_loss"),))
        with pytest.raises(ValueError, match="token_loss"):
            self._run(True, plan)


# ---------------------------------------------------------------------------
# Recovery: token regeneration and dead-port degraded mode.
# ---------------------------------------------------------------------------
class TestRecovery:
    def test_token_loss_recovers_bounded_fabric(self):
        res = run_config(
            SimConfig(seed=0),
            WorkloadSpec(
                pattern="uniform",
                quanta=600,
                fault_plan=FaultPlan(
                    events=(FaultEvent(cycle=60_000, kind="token_loss"),)
                ),
            ),
        )
        resil = res.extra["resilience"]
        assert resil["unrecovered"] == 0
        # Detection within a quantum, repair in ports+1 idle quanta.
        assert 0 < resil["mttr_cycles"] <= 5_000

    def test_token_loss_recovers_bounded_router(self):
        res = run_config(
            SimConfig(fidelity="router", seed=0),
            WorkloadSpec(
                pattern="uniform",
                packets=150,
                fault_plan=FaultPlan(
                    events=(FaultEvent(cycle=36_000, kind="token_loss"),)
                ),
            ),
        )
        resil = res.extra["resilience"]
        assert resil["faults_injected"] == 1
        assert resil["unrecovered"] == 0
        assert 0 < resil["mttr_cycles"] <= 5_000

    def test_dead_port_within_5pct_of_3port_fabric(self):
        # shift=1 permutation: killing port 3 leaves a clean 3-flow
        # permutation, directly comparable to a genuine 3-port run.
        base = WorkloadSpec(pattern="permutation", shift=1, quanta=1200)
        ref3 = run_config(SimConfig(seed=0, ports=3), base)
        dead = run_config(
            SimConfig(seed=0, ports=4),
            base.replace(
                fault_plan=FaultPlan(
                    events=(
                        FaultEvent(cycle=40_000, kind="port_down", target="port:3"),
                    )
                )
            ),
        )
        assert abs(dead.gbps - ref3.gbps) / ref3.gbps <= 0.05
        assert dead.extra["resilience"]["unrecovered"] == 0

    def test_dead_port_router_no_deadlock(self):
        """Phase level: kill one port mid-run; the run completes, the
        survivors keep forwarding, dead-bound traffic is dropped."""
        res = run_config(
            SimConfig(fidelity="router", seed=2),
            WorkloadSpec(
                pattern="uniform",
                packets=200,
                fault_plan=FaultPlan(
                    events=(
                        FaultEvent(cycle=35_000, kind="port_down", target="port:3"),
                    )
                ),
            ),
        )
        assert res.delivered_packets >= 200  # completed, no deadlock
        resil = res.extra["resilience"]
        assert resil["unrecovered"] == 0
        assert res.extra["drops"]["dead_port"] > 0
        # The dead egress stops delivering; the other three keep going.
        assert min(res.per_port_packets[:3]) > 0


# ---------------------------------------------------------------------------
# Sweep integration (satellite: fault plans as a grid axis).
# ---------------------------------------------------------------------------
class TestSweepIntegration:
    def test_build_cell_routes_fault_plan(self, tmp_path):
        from repro.sweep import build_cell, parse_grid

        path = str(tmp_path / "tok.json")
        FaultPlan(events=(FaultEvent(cycle=30_000, kind="token_loss"),)).to_json(path)
        grid = parse_grid([f"faults={path}"])
        assert grid == {"fault_plan": [path]}
        config, workload = build_cell({"fault_plan": path, "quanta": 300})
        assert workload.fault_plan == path
        assert workload.quanta == 300
        res = run_config(config, workload)
        assert res.extra["resilience"]["faults_injected"] == 1
