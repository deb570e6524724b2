"""The chaos campaign engine: determinism, oracle catches, minimization.

The two load-bearing claims tested here:

* a campaign is a pure function of its seed — byte-identical summaries on
  re-run, and zero violations on the healthy protocol;
* a deliberately injected protocol bug (a replica that skips the Figure-2
  phase-3 timestamp-ordering check before installing) is *caught* by a
  moderate campaign and *minimized* to a tiny replayable plan.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.chaos import (
    CampaignConfig,
    EpisodePlan,
    generate_plan,
    load_artifact,
    minimize_episode,
    replay_artifact,
    run_campaign,
    run_episode,
    save_artifact,
)
from repro.core.replica import BftBcReplica
from repro.errors import SimulationError


class RegressingReplica(BftBcReplica):
    """BUG FIXTURE: installs any write with a valid certificate, skipping
    the ``cert.ts > pcert.ts`` phase-3 ordering check — so a duplicated or
    reordered WRITE of an older timestamp regresses the replica's state."""

    def _should_install(self, cert):
        return True


def buggy_factory(node_id, config, store):
    if store is not None:
        return RegressingReplica(node_id, config, store=store)
    return RegressingReplica(node_id, config)


class TestCampaignDeterminism:
    def test_summary_byte_identical_across_runs(self):
        config = CampaignConfig(seed=7, episodes=6)
        first = run_campaign(config).summary()
        second = run_campaign(config).summary()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_healthy_protocol_survives(self):
        campaign = run_campaign(CampaignConfig(seed=13, episodes=9))
        assert not campaign.violations
        summary = campaign.summary()
        assert summary["totals"]["operations"] > 0
        assert summary["totals"]["messages_sent"] > 0

    def test_episode_rerun_is_exact(self):
        plan = generate_plan(CampaignConfig(seed=21), 3)
        a, b = run_episode(plan), run_episode(plan)
        assert a.to_summary() == b.to_summary()


class TestFastPathEpisodes:
    def test_fastpath_campaign_survives_and_exercises_fallback(self):
        """A fastpath-only campaign passes the full oracle battery, and the
        planner's FAST-message blackouts actually force fallbacks in at
        least one episode — the fallback path is chaos-tested, not idle."""
        campaign = run_campaign(
            CampaignConfig(seed=7, episodes=12, variants=("fastpath",))
        )
        assert not campaign.violations
        assert any(r.plan.attack == "lurking-fast" for r in campaign.results)
        blackouts = [
            r
            for r in campaign.results
            if any(f["op"] == "block_kinds" for f in r.plan.faults)
        ]
        assert blackouts, "the planner must schedule FAST-message blackouts"
        assert any(r.fallbacks > 0 for r in campaign.results)

    def test_fallback_counter_is_zero_for_signed_variants(self):
        plan = generate_plan(
            CampaignConfig(seed=5, variants=("optimized",)), 0
        )
        assert run_episode(plan).fallbacks == 0


BUG_CAMPAIGN = CampaignConfig(
    seed=7,
    episodes=50,
    variants=("base",),
    attacks=False,
    byzantine=False,
)


class TestBugCatchAcceptance:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        """The seed-7 catch-and-minimize campaign, run once for both tests.

        The bug is caught in the first handful of episodes, so tier-1 runs
        the 50 episodes unminimized and delta-debugs only the *first*
        violating plan (same 60-probe budget, same artifact path the engine
        would write); minimizing every violating episode is the same code
        per episode and lives behind the ``chaos`` marker below."""
        campaign = run_campaign(
            BUG_CAMPAIGN, replica_factory=buggy_factory, minimize=False
        )
        if campaign.violations:
            plan = campaign.violations[0].plan
            minimized = minimize_episode(
                plan, replica_factory=buggy_factory, budget=60
            )
            verdicts = {
                name: verdict.ok
                for name, verdict in minimized.final.verdicts.items()
            }
            path = str(
                tmp_path_factory.mktemp("bug-artifacts")
                / f"chaos-seed{BUG_CAMPAIGN.seed}-ep{plan.episode}.json"
            )
            save_artifact(path, minimized.plan, verdicts)
            campaign.minimized.append((minimized.plan, verdicts, path))
        return campaign

    def test_injected_bug_caught_and_minimized(self, campaign):
        """The ISSUE's acceptance bar: a ≤50-episode campaign catches the
        regression, and the minimized repro has ≤5 fault actions."""
        assert campaign.violations, "the campaign must catch the bug"
        assert campaign.minimized, "violations must be minimized"
        for plan, verdicts, path in campaign.minimized:
            assert len(plan.faults) <= 5
            assert not all(verdicts.values())
            # The artifact replays to the same verdict under the bug.
            outcome = replay_artifact(path, replica_factory=buggy_factory)
            assert outcome.matches

    def test_minimized_artifact_passes_on_fixed_code(self, campaign):
        """Replaying a bug artifact on the healthy protocol flips the
        verdict — which is exactly how a fixed bug shows up."""
        _plan, _verdicts, path = campaign.minimized[0]
        outcome = replay_artifact(path)  # no buggy factory: healthy replicas
        assert outcome.result.ok
        assert not outcome.matches


@pytest.mark.chaos
def test_full_bug_campaign_minimizes_every_violation(tmp_path):
    """The whole catch-and-minimize campaign (every violating episode
    delta-debugged and written by the engine itself): about two minutes,
    so it runs with the nightly chaos suite, not in tier-1."""
    campaign = run_campaign(
        BUG_CAMPAIGN,
        replica_factory=buggy_factory,
        minimize=True,
        minimize_budget=60,
        artifact_dir=tmp_path,
    )
    assert len(campaign.minimized) == len(campaign.violations) > 0
    for plan, verdicts, path in campaign.minimized:
        assert len(plan.faults) <= 5
        assert not all(verdicts.values())
        assert replay_artifact(path, replica_factory=buggy_factory).matches


class TestMinimizer:
    def _fake_runner(self, guilty_predicate):
        """A runner whose 'episode' violates iff the plan satisfies the
        predicate; counts invocations."""
        calls = []

        @dataclasses.dataclass
        class FakeResult:
            violations: tuple

        def runner(plan):
            calls.append(plan)
            bad = guilty_predicate(plan)
            return FakeResult(violations=("lemma1",) if bad else ())

        return runner, calls

    def _plan_with_faults(self, count):
        return EpisodePlan(
            episode=0,
            seed=1,
            faults=[
                {"op": "crash", "time": float(i), "node": "replica:0"}
                for i in range(count)
            ],
            clients=3,
            ops_per_client=8,
        )

    def test_ddmin_finds_single_guilty_fault(self):
        guilty = {"op": "crash", "time": 5.0, "node": "replica:0"}
        runner, calls = self._fake_runner(
            lambda plan: guilty in plan.faults
        )
        result = minimize_episode(self._plan_with_faults(8), runner=runner)
        assert result.plan.faults == [guilty]
        assert result.target == ("lemma1",)
        assert result.runs == len(calls)

    def test_greedy_shrinks_workload(self):
        runner, _ = self._fake_runner(lambda plan: True)
        result = minimize_episode(self._plan_with_faults(4), runner=runner)
        assert result.plan.faults == []
        assert result.plan.clients == 1
        assert result.plan.ops_per_client == 1

    def test_budget_caps_probes(self):
        runner, calls = self._fake_runner(lambda plan: True)
        minimize_episode(self._plan_with_faults(12), runner=runner, budget=5)
        assert len(calls) <= 5 + 1  # the confirmation run plus the budget

    def test_non_violating_plan_rejected(self):
        runner, _ = self._fake_runner(lambda plan: False)
        with pytest.raises(SimulationError, match="nothing to minimize"):
            minimize_episode(self._plan_with_faults(3), runner=runner)

    def test_reduction_must_preserve_original_oracle(self):
        """A reduction that trades the violation for a different oracle's
        failure is rejected."""
        calls = []

        @dataclasses.dataclass
        class FakeResult:
            violations: tuple

        def runner(plan):
            calls.append(plan)
            if len(plan.faults) >= 2:
                return FakeResult(violations=("lemma1",))
            if len(plan.faults) == 1:
                return FakeResult(violations=("liveness",))
            return FakeResult(violations=())

        plan = self._plan_with_faults(4)
        result = minimize_episode(plan, runner=runner)
        assert len(result.plan.faults) == 2
        assert result.target == ("lemma1",)


class TestArtifacts:
    def test_save_load_round_trip(self, tmp_path):
        plan = generate_plan(CampaignConfig(seed=5), 2)
        path = tmp_path / "art.json"
        save_artifact(path, plan, {"lemma1": True}, note="hello")
        loaded_plan, verdicts, note = load_artifact(path)
        assert loaded_plan == plan
        assert verdicts == {"lemma1": True}
        assert note == "hello"

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else/1"}', encoding="utf-8")
        with pytest.raises(SimulationError, match="not a chaos artifact"):
            load_artifact(path)


class TestBudgetedStateCompat:
    """Per-client state budgets under chaos: spill/rehydrate must be
    invisible to every invariant oracle, including across crash-restarts
    that rebuild replicas from their WALs."""

    def _budgeted_factory(self, node_id, config, store):
        from repro.core.persistence import ClientStateBudget
        from repro.core.replica import OptimizedBftBcReplica

        budgeted = dataclasses.replace(
            config, client_state_budget=ClientStateBudget(hot_entries=2)
        )
        if store is not None:
            return OptimizedBftBcReplica(node_id, budgeted, store=store)
        return OptimizedBftBcReplica(node_id, budgeted)

    def test_episode_with_spill_active_passes_all_oracles(self):
        from repro.chaos.oracles import ORACLES

        plan = EpisodePlan(
            episode=0,
            seed=424242,
            variant="optimized",
            store="filelog",
            faults=[
                {"op": "crash_restart", "time": 4.0, "node": "replica:1",
                 "down_for": 6.0},
                {"op": "crash_restart", "time": 14.0, "node": "replica:3",
                 "down_for": 6.0},
            ],
            clients=6,
            ops_per_client=4,
            write_fraction=0.7,
            max_time=240.0,
        )
        result = run_episode(plan, replica_factory=self._budgeted_factory)
        assert set(result.verdicts) == set(ORACLES)
        assert result.ok, f"violated: {result.violations}"
        assert result.operations == 6 * 4

    def test_budgeted_episode_matches_unbudgeted_verdicts(self):
        plan = EpisodePlan(
            episode=1,
            seed=77,
            variant="optimized",
            store="filelog",
            faults=[
                {"op": "crash_restart", "time": 3.0, "node": "replica:0",
                 "down_for": 5.0},
            ],
            clients=4,
            ops_per_client=3,
            max_time=240.0,
        )
        budgeted = run_episode(plan, replica_factory=self._budgeted_factory)
        plain = run_episode(plan)
        assert budgeted.ok and plain.ok
        assert budgeted.operations == plain.operations


class TestStabilization:
    """The PR-10 self-stabilization loop under injected state corruption."""

    def _plan(self, spec, *, store="filelog", seed=31, audit_interval=0.2):
        base = generate_plan(
            CampaignConfig(
                seed=seed,
                episodes=1,
                byzantine=False,
                attacks=False,
                corruption=False,
                stores=(store,),
            ),
            0,
        )
        return base.replace(faults=[spec], audit_interval=audit_interval)

    def test_wal_bitflip_episode_stabilizes(self):
        spec = {
            "op": "wal_bitflip",
            "time": 0.5,
            "node": "replica:1",
            "position": 0.5,
            "flip": 0x80,
        }
        result = run_episode(self._plan(spec))
        assert all(v.ok for v in result.verdicts.values())
        assert result.repairs == result.quarantines

    def test_state_perturb_episode_stabilizes(self):
        spec = {
            "op": "state_perturb",
            "time": 0.5,
            "node": "replica:2",
            "target": "data",
            "seed": 5,
        }
        result = run_episode(self._plan(spec, store="memory"))
        assert all(v.ok for v in result.verdicts.values())
        assert result.repairs == result.quarantines

    def test_snapshot_truncate_episode_stabilizes(self):
        spec = {
            "op": "snapshot_truncate",
            "time": 0.6,
            "node": "replica:0",
            "keep": 0.2,
        }
        result = run_episode(self._plan(spec))
        assert all(v.ok for v in result.verdicts.values())

    def test_oracle_flags_unrepaired_quarantine(self):
        from repro.chaos.oracles import run_oracle_battery
        from repro.sim.runner import build_cluster

        cluster = build_cluster(f=1, seed=1)
        cluster.run_scripts({"alice": [("write", ("v", 0))]}, max_time=60)
        plan = self._plan(
            {"op": "state_perturb", "time": 0.5, "node": "replica:0",
             "target": "data", "seed": 1},
            store="memory",
        )
        cluster.replicas["replica:0"].enter_quarantine("test")
        verdict = run_oracle_battery(
            {None: cluster.history},
            cluster.replicas,
            plan.protocol,
            plan.f,
            faults=plan.faults,
        )["stabilization"]
        assert not verdict.ok
        assert "quarantined" in verdict.detail

    def test_audit_loop_ticks_on_every_correct_replica(self):
        from repro.chaos.engine import _arm_audit_loop
        from repro.sim.runner import build_cluster

        cluster = build_cluster(f=1, seed=2)
        plan = self._plan(
            {"op": "state_perturb", "time": 9999.0, "node": "replica:0",
             "target": "data", "seed": 1},
            store="memory",
            audit_interval=0.1,
        )
        _arm_audit_loop(cluster, plan)
        cluster.run_scripts(
            {"alice": [("write", ("v", i)) for i in range(3)]}, max_time=60
        )
        assert all(
            replica.stats.self_audits > 0
            for replica in cluster.replicas.values()
        )

    def test_corruption_campaign_passes_all_oracles(self):
        campaign = run_campaign(CampaignConfig(seed=29, episodes=10))
        assert not campaign.violations
        detected = sum(r.quarantines for r in campaign.results)
        repaired = sum(r.repairs for r in campaign.results)
        assert detected == repaired
