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

from repro._exports import lazy_exports

_EXPORTS = {
    "ARTIFACT_FORMAT": "repro.chaos.artifact",
    "ORACLES": "repro.chaos.oracles",
    "SHARD_ORACLES": "repro.chaos.oracles",
    "CampaignConfig": "repro.chaos.plan",
    "CampaignResult": "repro.chaos.engine",
    "EpisodePlan": "repro.chaos.plan",
    "EpisodeResult": "repro.chaos.engine",
    "MinimizationResult": "repro.chaos.minimize",
    "OracleVerdict": "repro.chaos.oracles",
    "ReplayOutcome": "repro.chaos.artifact",
    "ShardEpisodePlan": "repro.chaos.shard",
    "ShardEpisodeResult": "repro.chaos.shard",
    "check_epoch_agreement": "repro.chaos.oracles",
    "generate_plan": "repro.chaos.plan",
    "load_artifact": "repro.chaos.artifact",
    "minimize_episode": "repro.chaos.minimize",
    "replay_artifact": "repro.chaos.artifact",
    "run_campaign": "repro.chaos.engine",
    "run_episode": "repro.chaos.engine",
    "run_oracle_battery": "repro.chaos.oracles",
    "run_shard_episode": "repro.chaos.shard",
    "save_artifact": "repro.chaos.artifact",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
