"""Open-loop production load harness (layer 5, experiment E21).

Declares production-shaped workloads (:mod:`repro.load.profile`), generates
deterministic Poisson/zipf arrival schedules (:mod:`repro.load.generator`),
and drives them against a replica group either in virtual time on the
simulator (:mod:`repro.load.harness`) or over real asyncio TCP
(:mod:`repro.load.tcp`), judging the outcome against SLO targets and the
:mod:`repro.analysis.costs` capacity closed forms.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Arrival": "repro.load.generator",
    "OpenLoopGenerator": "repro.load.generator",
    "zipf_weights": "repro.load.generator",
    "SimLoadHarness": "repro.load.harness",
    "SimLoadOptions": "repro.load.harness",
    "judge_slos": "repro.load.harness",
    "run_open_loop": "repro.load.harness",
    "BurstPhase": "repro.load.profile",
    "LoadProfile": "repro.load.profile",
    "LoadReport": "repro.load.profile",
    "SloTarget": "repro.load.profile",
    "SloVerdict": "repro.load.profile",
    "DEFAULT_SLOS": "repro.load.profile",
    "run_tcp_load": "repro.load.tcp",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
