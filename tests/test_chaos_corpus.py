"""The committed chaos corpus replays green.

``traces/chaos/`` holds the deepest *surviving* episodes found by the
seed-7 campaign — schedules with Byzantine replicas, client attacks,
crash/restarts, and hostile links that the protocol nonetheless handled
correctly.  Their green replay is a regression floor: a code change that
turns any of them red has made the protocol less resilient than the
checked-in evidence says it is.

The corpus mixes two artifact formats: single-group episodes
(``repro-chaos-artifact/*``) and sharded reconfiguration episodes
(``repro-chaos-shard-artifact/*``); one ``replay_artifact`` picks the
engine from the tag.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.chaos import replay_artifact
from repro.chaos.shard import SHARD_ARTIFACT_FORMAT

TRACES = pathlib.Path(__file__).resolve().parent.parent / "traces" / "chaos"
CORPUS = sorted(TRACES.glob("*.json"))


def _is_shard(path: pathlib.Path) -> bool:
    data = json.loads(path.read_text(encoding="utf-8"))
    return data.get("format") == SHARD_ARTIFACT_FORMAT


SINGLE = [p for p in CORPUS if not _is_shard(p)]
SHARDED = [p for p in CORPUS if _is_shard(p)]


def test_corpus_is_committed():
    assert len(SINGLE) >= 2, "the chaos corpus must ship with the repo"
    assert len(SHARDED) >= 1, "a shard reconfiguration artifact must ship too"


@pytest.mark.parametrize("path", SINGLE, ids=lambda p: p.stem)
def test_corpus_artifact_replays_green(path):
    outcome = replay_artifact(path)
    assert outcome.matches, (
        f"{path.name} diverged: expected {outcome.expected}, "
        f"got {outcome.actual}"
    )
    assert outcome.result.ok


@pytest.mark.parametrize("path", SHARDED, ids=lambda p: p.stem)
def test_corpus_shard_artifact_replays_green(path):
    outcome = replay_artifact(path)
    assert outcome.matches, (
        f"{path.name} diverged: expected {outcome.expected}, "
        f"got {outcome.actual}"
    )
    assert outcome.result.ok
