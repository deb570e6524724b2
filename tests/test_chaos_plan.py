"""Episode-plan generation: determinism, serialisation, model discipline.

Every generated plan must stay inside the §2 fault assumptions — at most
``f`` replicas Byzantine-or-down at any instant, partitions always healed,
``crash_restart`` only where a durable store can rebuild the replica — so
that a violation found by the campaign is always a finding, never the
generator cheating the model.
"""

from __future__ import annotations

import pytest

from repro.byzantine import REPLICA_BEHAVIOURS
from repro.chaos import CampaignConfig, EpisodePlan, generate_plan
from repro.chaos.plan import CLIENT_ATTACKS
from repro.errors import SimulationError
from repro.sim.faults import FAULT_OPS, FaultSchedule

#: The ops the catalogue declares state-damaging.
CORRUPTION_OPS = {name for name, op in FAULT_OPS.items() if op.damages_state}


class TestGeneratePlan:
    def test_deterministic_per_episode(self):
        config = CampaignConfig(seed=11, episodes=10)
        for episode in range(10):
            assert generate_plan(config, episode) == generate_plan(config, episode)

    def test_different_seeds_differ(self):
        plans_a = [generate_plan(CampaignConfig(seed=1), e) for e in range(10)]
        plans_b = [generate_plan(CampaignConfig(seed=2), e) for e in range(10)]
        assert plans_a != plans_b

    def test_variants_round_robin(self):
        config = CampaignConfig(seed=3, variants=("base", "strong"))
        assert generate_plan(config, 0).variant == "base"
        assert generate_plan(config, 1).variant == "strong"
        assert generate_plan(config, 2).variant == "base"

    def test_fault_budget_respected(self):
        """Byzantine replicas plus concurrently-down correct replicas never
        exceed f, and every crash window is disjoint from the others."""
        for seed in range(6):
            config = CampaignConfig(seed=seed, episodes=20)
            for episode in range(20):
                plan = generate_plan(config, episode)
                assert len(plan.byzantine_replicas) <= plan.f
                windows = []
                open_since = {}
                for spec in plan.faults:
                    if spec["op"] == "crash":
                        open_since[spec["node"]] = spec["time"]
                    elif spec["op"] == "recover":
                        windows.append((open_since.pop(spec["node"]), spec["time"]))
                    elif spec["op"] == "crash_restart":
                        windows.append(
                            (spec["time"], spec["time"] + spec["down_for"])
                        )
                assert not open_since, "every crash is recovered"
                crash_budget = plan.f - len(plan.byzantine_replicas)
                for start, end in windows:
                    overlapping = sum(
                        1 for s, e in windows if s < end and start < e
                    )
                    assert overlapping <= max(crash_budget, 0)

    def test_partitions_always_heal(self):
        for seed in range(6):
            config = CampaignConfig(seed=seed)
            for episode in range(20):
                plan = generate_plan(config, episode)
                cuts = [s for s in plan.faults if s["op"] == "partition"]
                heals = [s for s in plan.faults if s["op"] == "heal"]
                assert len(cuts) == len(heals)
                for cut, heal in zip(cuts, heals):
                    assert heal["time"] > cut["time"]

    def test_crash_restart_only_with_durable_store(self):
        for seed in range(8):
            config = CampaignConfig(seed=seed)
            for episode in range(20):
                plan = generate_plan(config, episode)
                if any(s["op"] == "crash_restart" for s in plan.faults):
                    assert plan.store == "filelog"

    def test_attacks_and_behaviours_from_catalogue(self):
        for seed in range(6):
            config = CampaignConfig(seed=seed)
            for episode in range(20):
                plan = generate_plan(config, episode)
                if plan.attack is not None:
                    assert plan.attack in CLIENT_ATTACKS[plan.variant]
                for kind in plan.byzantine_replicas.values():
                    assert kind in REPLICA_BEHAVIOURS


class TestPlanSerialisation:
    def test_json_round_trip(self):
        plan = generate_plan(CampaignConfig(seed=9), 4)
        assert EpisodePlan.from_json(plan.to_json()) == plan

    def test_rejects_unknown_format(self):
        data = generate_plan(CampaignConfig(seed=9), 0).to_json()
        data["format"] = "repro-chaos/999"
        with pytest.raises(SimulationError):
            EpisodePlan.from_json(data)

    def test_rejects_unknown_fields(self):
        data = generate_plan(CampaignConfig(seed=9), 0).to_json()
        data["surprise"] = 1
        with pytest.raises(SimulationError):
            EpisodePlan.from_json(data)

    def test_replace_shares_nothing_mutable(self):
        plan = generate_plan(CampaignConfig(seed=9), 1)
        pristine = generate_plan(CampaignConfig(seed=9), 1)
        copy = plan.replace(clients=1)
        copy.profile["drop_rate"] = 0.99
        if copy.faults:
            copy.faults[0]["time"] = 99.0
        copy.byzantine_replicas["0"] = "crashed"
        assert plan.profile == pristine.profile
        assert plan.faults == pristine.faults
        assert plan.byzantine_replicas == pristine.byzantine_replicas


class TestBuildSchedule:
    def test_materialises_every_op(self):
        schedule = FaultSchedule(
            [
                {"op": "crash", "time": 0.1, "node": "replica:0"},
                {"op": "recover", "time": 0.5, "node": "replica:0"},
                {"op": "partition", "time": 0.2, "a": "replica:1", "b": "client:w0"},
                {"op": "heal", "time": 0.4, "a": "replica:1", "b": "client:w0"},
                {
                    "op": "degrade",
                    "time": 0.3,
                    "src": "replica:2",
                    "dst": "client:w0",
                    "profile": {"drop_rate": 0.5},
                },
                {
                    "op": "crash_restart",
                    "time": 1.0,
                    "node": "replica:3",
                    "down_for": 0.5,
                },
            ]
        )
        # Five network-level actions, plus crash_restart's two node-level
        # actions (the crash and the recovering restart).
        assert [step.acts_on for step in schedule.steps()] == (
            ["network"] * 5 + ["node"] * 2
        )

    def test_unknown_op_raises(self):
        with pytest.raises(SimulationError, match="unknown fault op"):
            FaultSchedule([{"op": "meteor", "time": 0.1}])


class TestCorruptionFaults:
    """The PR-10 state-corruption ops stay inside the §2 fault budget."""

    def test_victim_spends_a_unit_of_f(self):
        """A corrupted replica counts against the same budget as crashes
        and Byzantine substitutions: at most one victim per episode, never
        also Byzantine, never also crashed."""
        for seed in range(6):
            config = CampaignConfig(seed=seed, episodes=20)
            for episode in range(20):
                plan = generate_plan(config, episode)
                corrupted = [
                    s for s in plan.faults if s["op"] in CORRUPTION_OPS
                ]
                assert len(corrupted) <= 1
                crashed = {
                    s["node"]
                    for s in plan.faults
                    if s["op"] in ("crash", "crash_restart")
                }
                byzantine = {
                    f"replica:{index}" for index in plan.byzantine_replicas
                }
                for spec in corrupted:
                    assert spec["node"] not in crashed
                    assert spec["node"] not in byzantine
                assert (
                    len(byzantine) + len(corrupted) + (1 if crashed else 0)
                    <= plan.f
                )

    def test_disk_ops_only_with_durable_store(self):
        for seed in range(8):
            config = CampaignConfig(seed=seed, episodes=20)
            for episode in range(20):
                plan = generate_plan(config, episode)
                for spec in plan.faults:
                    if spec["op"] in ("wal_bitflip", "snapshot_truncate"):
                        assert plan.store == "filelog"

    def test_corruption_can_be_disabled(self):
        config = CampaignConfig(seed=7, episodes=30, corruption=False)
        for episode in range(30):
            plan = generate_plan(config, episode)
            assert not any(s["op"] in CORRUPTION_OPS for s in plan.faults)

    def test_generator_emits_corruption_sometimes(self):
        config = CampaignConfig(seed=7, episodes=40)
        hits = sum(
            1
            for episode in range(40)
            if any(
                s["op"] in CORRUPTION_OPS
                for s in generate_plan(config, episode).faults
            )
        )
        assert hits > 0

    def test_from_json_defaults_audit_interval(self):
        """Artifacts recorded before the stabilization loop load cleanly."""
        data = generate_plan(CampaignConfig(seed=9), 0).to_json()
        del data["audit_interval"]
        plan = EpisodePlan.from_json(data)
        assert plan.audit_interval == 0.25

    def test_build_schedule_materialises_corruption_ops(self):
        schedule = FaultSchedule(
            [
                {
                    "op": "wal_bitflip",
                    "time": 0.4,
                    "node": "replica:1",
                    "position": 0.25,
                    "flip": 0x80,
                },
                {
                    "op": "snapshot_truncate",
                    "time": 0.5,
                    "node": "replica:2",
                    "keep": 0.3,
                },
                {
                    "op": "state_perturb",
                    "time": 0.6,
                    "node": "replica:3",
                    "target": "write_ts",
                    "seed": 17,
                },
            ]
        )
        assert [step.acts_on for step in schedule.steps()] == ["node"] * 3
