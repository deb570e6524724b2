"""Replayable chaos artifacts: a minimal plan plus its expected verdicts.

An artifact is a small, human-readable JSON file — the closed end of the
chaos loop: campaign finds a violation, minimizer shrinks it, the artifact
pins it.  ``python -m repro chaos replay art.json`` re-executes the plan
(episodes are deterministic, so the re-run is exact) and compares the fresh
oracle verdicts against the recorded ones.  The committed corpus under
``traces/chaos/`` uses the same format for the opposite purpose: deep
*non-violating* episodes whose green replay is a regression floor for the
protocol's resilience.

There are two kinds of episode and one artifact layout: the format tag says
whether the plan is a single-group :class:`~repro.chaos.plan.EpisodePlan`
or a sharded :class:`~repro.chaos.shard.ShardEpisodePlan`, and picks the
engine that replays it.

Artifacts deliberately contain no wall-clock timestamps and no filesystem
paths, so a file is byte-stable across machines and replays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.chaos.engine import run_episode
from repro.chaos.plan import EpisodePlan
from repro.chaos.shard import (
    SHARD_ARTIFACT_FORMAT,
    ShardEpisodePlan,
    run_shard_episode,
)
from repro.errors import SimulationError

__all__ = [
    "ARTIFACT_FORMAT",
    "ReplayOutcome",
    "save_artifact",
    "load_artifact",
    "replay_artifact",
]

#: Format tag of single-group artifact files.
ARTIFACT_FORMAT = "repro-chaos-artifact/1"

#: Format tag -> the plan class it carries.
_PLAN_CLASSES = {
    ARTIFACT_FORMAT: EpisodePlan,
    SHARD_ARTIFACT_FORMAT: ShardEpisodePlan,
}


@dataclass
class ReplayOutcome:
    """A replayed artifact: the fresh result vs the recorded expectation."""

    plan: EpisodePlan | ShardEpisodePlan
    result: Any  # EpisodeResult or ShardEpisodeResult
    expected: dict[str, bool]
    note: str = ""

    @property
    def actual(self) -> dict[str, bool]:
        return {
            name: verdict.ok for name, verdict in self.result.verdicts.items()
        }

    @property
    def matches(self) -> bool:
        """True when every recorded verdict is reproduced exactly."""
        actual = self.actual
        return all(
            actual.get(name) == expected
            for name, expected in self.expected.items()
        )


def save_artifact(
    path: str | Path,
    plan: EpisodePlan | ShardEpisodePlan,
    verdicts: dict[str, bool],
    *,
    note: str = "",
) -> dict[str, Any]:
    """Write a replayable artifact; returns the payload that was written."""
    sharded = isinstance(plan, ShardEpisodePlan)
    payload = {
        "format": SHARD_ARTIFACT_FORMAT if sharded else ARTIFACT_FORMAT,
        "note": note,
        "plan": plan.to_json(),
        "verdicts": dict(sorted(verdicts.items())),
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload


def load_artifact(
    path: str | Path,
) -> tuple[EpisodePlan | ShardEpisodePlan, dict[str, bool], str]:
    """Read ``(plan, expected_verdicts, note)`` from an artifact file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    plan_cls = _PLAN_CLASSES.get(data.get("format"))
    if plan_cls is None:
        raise SimulationError(
            f"{path}: not a chaos artifact (format {data.get('format')!r})"
        )
    plan = plan_cls.from_json(data["plan"])
    verdicts = {str(k): bool(v) for k, v in data.get("verdicts", {}).items()}
    return plan, verdicts, str(data.get("note", ""))


def replay_artifact(path: str | Path, **runner_kwargs: Any) -> ReplayOutcome:
    """Re-execute an artifact's plan and compare verdicts.

    Determinism makes this an exact re-run: the same seed drives the same
    network draws, fault firings, and workload interleaving.
    ``runner_kwargs`` go to the plan's engine (:func:`run_episode` or
    :func:`run_shard_episode`).
    """
    plan, expected, note = load_artifact(path)
    run = run_shard_episode if isinstance(plan, ShardEpisodePlan) else run_episode
    result = run(plan, **runner_kwargs)
    return ReplayOutcome(plan=plan, result=result, expected=expected, note=note)
