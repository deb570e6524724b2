"""repro.chaos — seed-deterministic fault campaigns with invariant oracles.

The chaos engine closes the loop from "random adversary" to "minimal
checked-in repro":

1. :func:`~repro.chaos.plan.generate_plan` derives declarative episode
   plans (faults, link profiles with reordering, Byzantine replica and
   client substitutions, multi-client workloads) from one integer seed;
2. :func:`~repro.chaos.engine.run_episode` executes a plan under the
   simulator and judges it with the oracle battery
   (:mod:`repro.chaos.oracles`);
3. on violation, :func:`~repro.chaos.minimize.minimize_episode`
   delta-debugs the plan to a minimal failing schedule and
   :mod:`repro.chaos.artifact` pins it as a replayable JSON file;
4. :mod:`repro.chaos.tcp` runs a smaller campaign against the real
   asyncio transport through a byte-mangling
   :class:`~repro.net.chaos_proxy.ChaosProxy`.

``python -m repro chaos run --seed N --episodes K`` drives campaigns from
the command line; ``chaos replay art.json`` re-runs an artifact.
"""

from repro.chaos.artifact import (
    ARTIFACT_FORMAT,
    ReplayOutcome,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.chaos.engine import (
    CampaignResult,
    EpisodeResult,
    run_campaign,
    run_episode,
)
from repro.chaos.minimize import MinimizationResult, minimize_episode
from repro.chaos.oracles import (
    ORACLES,
    SHARD_ORACLES,
    OracleVerdict,
    check_epoch_agreement,
    run_oracle_battery,
)
from repro.chaos.plan import (
    CampaignConfig,
    EpisodePlan,
    build_schedule,
    generate_plan,
)
from repro.chaos.shard import (
    ShardEpisodePlan,
    ShardEpisodeResult,
    run_shard_episode,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ORACLES",
    "SHARD_ORACLES",
    "CampaignConfig",
    "CampaignResult",
    "EpisodePlan",
    "EpisodeResult",
    "MinimizationResult",
    "OracleVerdict",
    "ReplayOutcome",
    "ShardEpisodePlan",
    "ShardEpisodeResult",
    "build_schedule",
    "check_epoch_agreement",
    "generate_plan",
    "load_artifact",
    "minimize_episode",
    "replay_artifact",
    "run_campaign",
    "run_episode",
    "run_oracle_battery",
    "run_shard_episode",
    "save_artifact",
]
