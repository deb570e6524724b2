"""Unit tests for sharded chaos episodes and their replayable artifacts."""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    CampaignConfig,
    ShardEpisodePlan,
    generate_plan,
    load_artifact,
    replay_artifact,
    run_shard_episode,
    save_artifact,
)
from repro.chaos.shard import SHARD_ARTIFACT_FORMAT
from repro.errors import SimulationError


class TestPlanSerialisation:
    def test_json_round_trip(self):
        plan = ShardEpisodePlan(
            seed=9,
            shards=2,
            clients=3,
            ops_per_client=7,
            profile={"drop_rate": 0.1},
            reconfigurations=[
                {"time": 0.5, "shard": "shard:0", "remove": "replica:s0n0",
                 "add": "replica:s0nX", "crash_old": True}
            ],
            faults=[{"kind": "partition", "time": 0.2, "duration": 0.1,
                     "group": ["replica:s0n1"]}],
        )
        again = ShardEpisodePlan.from_json(plan.to_json())
        assert again == plan

    def test_from_json_rejects_unknown_fields(self):
        data = ShardEpisodePlan(seed=1).to_json()
        data["surprise"] = True
        with pytest.raises(SimulationError):
            ShardEpisodePlan.from_json(data)

    def test_from_json_rejects_wrong_format(self):
        data = ShardEpisodePlan(seed=1).to_json()
        data["format"] = "repro-chaos/1"
        with pytest.raises(SimulationError):
            ShardEpisodePlan.from_json(data)


class TestEpisodes:
    def test_clean_episode_all_green(self):
        plan = ShardEpisodePlan(
            seed=4, shards=2, clients=2, ops_per_client=10, objects=6
        )
        result = run_shard_episode(plan)
        assert result.ok, result.violated
        assert result.stats["ops"] == plan.clients * plan.ops_per_client
        assert set(result.stats["epochs"]) == {"shard:0", "shard:1"}
        assert all(epoch == 0 for epoch in result.stats["epochs"].values())

    def test_reconfiguration_episode_advances_epoch(self):
        plan = ShardEpisodePlan(
            seed=5,
            shards=2,
            clients=2,
            ops_per_client=30,
            objects=8,
            handoff=0.2,
            reconfigurations=[
                {"time": 0.1, "shard": "shard:0", "remove": "replica:s0n1",
                 "add": "replica:s0nX", "crash_old": True}
            ],
        )
        result = run_shard_episode(plan)
        assert result.ok, result.violated
        assert result.stats["epochs"]["shard:0"] == 1
        assert result.stats["epochs"]["shard:1"] == 0
        assert "epoch-agreement" in result.verdicts


class TestArtifacts:
    def test_save_load_replay_round_trip(self, tmp_path):
        plan = ShardEpisodePlan(
            seed=6, shards=2, clients=2, ops_per_client=8, objects=6
        )
        result = run_shard_episode(plan)
        assert result.ok
        verdicts = {name: v.ok for name, v in result.verdicts.items()}
        path = tmp_path / "episode.json"
        payload = save_artifact(path, plan, verdicts, note="round trip")
        assert payload["format"] == SHARD_ARTIFACT_FORMAT

        loaded_plan, expected, note = load_artifact(path)
        assert loaded_plan == plan
        assert expected == verdicts
        assert note == "round trip"

        outcome = replay_artifact(path)
        assert outcome.matches, (outcome.expected, outcome.actual)
        assert outcome.result.ok

    def test_load_rejects_single_group_artifact(self, tmp_path):
        """The tag picks the plan class; a plan of the other kind under it
        is refused, in both directions."""
        single = generate_plan(CampaignConfig(seed=5), 2)
        sharded = ShardEpisodePlan(seed=6)
        path = tmp_path / "other.json"
        for plan, other in ((single, sharded), (sharded, single)):
            payload = save_artifact(path, plan, {})
            payload["plan"] = other.to_json()
            path.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(SimulationError):
                load_artifact(path)
