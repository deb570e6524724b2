"""The sim/TCP load harness: determinism, budget differential, SLOs."""

from __future__ import annotations

import json

import pytest

from repro.core.persistence import ClientStateBudget
from repro.errors import SimulationError
from repro.load import (
    DEFAULT_SLOS,
    LoadProfile,
    SimLoadHarness,
    SimLoadOptions,
    SloTarget,
    judge_slos,
    run_open_loop,
    run_tcp_load,
)
from repro.net.simnet import LinkProfile
from repro.obs import LatencyHistogram
from repro.sim.nodes import MachineHost


def small_profile(**overrides) -> LoadProfile:
    kwargs = dict(
        rate=300.0,
        duration=1.0,
        identities=120,
        objects=8,
        write_fraction=0.5,
        zipf_skew=1.1,
        seed=7,
    )
    kwargs.update(overrides)
    return LoadProfile(**kwargs)


class TestSimHarness:
    def test_small_run_completes_everything(self):
        report = run_open_loop(small_profile(), variant="optimized")
        assert report.arrivals > 100
        assert report.completed == report.arrivals
        assert report.failed == 0
        assert report.distinct_identities == min(report.arrivals, 120)
        assert report.ops_digest
        assert report.slo_ok
        # Zero service delay: no queueing model, capacity unbounded.
        assert report.predicted_capacity == float("inf")
        assert report.utilization == 0.0
        wire = report.to_wire()
        json.dumps(wire)  # must round-trip to JSON for the CLI / bench record
        assert wire["completed"] == report.completed
        assert wire["slos"]

    def test_identity_accounting_counters(self):
        report = run_open_loop(
            small_profile(identities=400, rate=600.0),
            variant="optimized",
            budget=ClientStateBudget(hot_entries=4),
            secret_cache=32,
        )
        identity = report.identity
        assert identity["registry_derivations"] >= 400
        assert identity["registry_resident"] <= 32
        assert identity["registry_evictions"] > 0
        assert identity["client_state_spills"] > 0
        assert identity["tracked_entries"] > 0
        assert identity["driver_activations"] >= report.distinct_identities

    def test_runs_are_deterministic(self):
        def once():
            return run_open_loop(small_profile(), variant="optimized")

        a, b = once(), once()
        assert a.ops_digest == b.ops_digest
        assert a.completed == b.completed
        assert a.write_p95 == b.write_p95

    @pytest.mark.parametrize("variant", ["base", "fastpath", "strong"])
    def test_other_variants_run(self, variant):
        report = run_open_loop(
            small_profile(rate=120.0, identities=40), variant=variant
        )
        assert report.failed == 0
        assert report.slo_ok

    def test_burst_profile_runs(self):
        profile = LoadProfile.bursty(
            200.0,
            1.5,
            burst_multiplier=3.0,
            burst_fraction=0.3,
            identities=100,
            objects=8,
            seed=11,
        )
        report = run_open_loop(profile, variant="optimized")
        assert report.failed == 0
        assert report.arrivals > profile.rate * profile.duration

    def test_overload_blows_the_slo(self):
        # Offered at ~2x the single-server capacity: queueing delay grows
        # without bound, so tail latency must violate any sane SLO.
        # Sized by arrivals, not seconds: the backlog makes the run cost
        # grow quadratically with them, and ~310 already put the tail at
        # twenty times the SLO.
        capacity = 1.0 / (1.5 * 0.002)  # optimized, 50/50 mix, 2ms service
        rate = 2 * capacity
        report = run_open_loop(
            small_profile(rate=rate, duration=330 / rate, identities=500),
            variant="optimized",
            service_delay=0.002,
            slos=(SloTarget("write.p95", 0.05),),
        )
        assert report.utilization > 1.5
        assert not report.slo_ok
        assert report.write_p95 > 0.05

    def test_harness_exposes_fingerprints_and_tracked_entries(self):
        harness = SimLoadHarness(small_profile(), SimLoadOptions())
        harness.run()
        prints = harness.object_fingerprints()
        assert len(prints) == 4  # 3f+1 replicas
        per_node = list(prints.values())
        assert all(node == per_node[0] for node in per_node)
        assert harness.tracked_entries() > 0
        assert harness.active_drivers == 0  # everyone parked after drain


class TestRetransmitTimer:
    def test_one_live_timer_per_driver_and_one_sweep_per_operation(self):
        """One identity running queued writes back to back: each finished
        operation's timer chain used to live on, so every tick of every
        stale chain retransmitted the *current* operation (1128 messages
        for these 12 writes; 384 with the chain cancelled on completion)."""
        profile = LoadProfile(
            rate=50,
            duration=0.2,
            identities=1,
            objects=1,
            write_fraction=1.0,
            identity_policy="uniform",
        )
        harness = SimLoadHarness(
            profile,
            SimLoadOptions(
                # Three 0.12 s round trips outlast one 0.25 s timer period.
                link=LinkProfile(min_delay=0.06, max_delay=0.06),
                retransmit_interval=0.25,
            ),
        )
        worst = 0

        def sample_live_timers(*_event) -> None:
            nonlocal worst
            live = sum(
                1
                for event in harness.scheduler._queue
                if not event.cancelled
                and getattr(event.action, "__func__", None) is MachineHost._tick
            )
            worst = max(worst, live)

        harness.network.tap = sample_live_timers  # runs on every send/delivery
        report = harness.run()
        assert report.completed == report.arrivals == 12
        assert worst == 1  # a single identity: a single driver
        n = harness.config.quorums.n
        # 3 phases x (request + reply) x n replicas, plus one n-message
        # retransmission sweep (and its n replies) per operation.
        assert harness.network.stats.messages_sent <= (6 * n + 2 * n) * 12


class TestBudgetDifferential:
    """The acceptance differential, at tier-1 scale.

    The full 10^5-identity version lives in TestBudgetDifferentialSlow;
    this one keeps the same structure at ~2.5k identities so it runs in
    seconds on every push.
    """

    IDENTITIES = 2500

    def _arm(self, budgeted: bool) -> SimLoadHarness:
        profile = small_profile(
            identities=self.IDENTITIES, rate=1500.0, duration=2.0
        )
        options = SimLoadOptions(
            variant="optimized",
            budget=ClientStateBudget(hot_entries=4) if budgeted else None,
            secret_cache=128 if budgeted else 10_000_000,
        )
        return SimLoadHarness(profile, options)

    def test_budgeted_matches_unbounded_with_a_fraction_of_the_state(self):
        budgeted, unbounded = self._arm(True), self._arm(False)
        budgeted_report = budgeted.run()
        unbounded_report = unbounded.run()

        # Identical operation results, completion order, and replica state.
        assert budgeted_report.ops_digest == unbounded_report.ops_digest
        assert budgeted_report.completed == unbounded_report.completed
        assert budgeted.object_fingerprints() == unbounded.object_fingerprints()

        # ... at a tenth (or less) of the tracked identity state.
        ratio = budgeted.tracked_entries() / unbounded.tracked_entries()
        assert ratio <= 0.10, f"tracked ratio {ratio:.3f} exceeds 0.10"
        assert budgeted_report.identity["client_state_spills"] > 0


@pytest.mark.slow
class TestBudgetDifferentialSlow:
    """ISSUE 8 acceptance: the differential at 10^5 distinct identities."""

    def test_full_scale_differential(self):
        profile = LoadProfile(
            rate=4000.0,
            duration=27.0,
            identities=100_000,
            objects=32,
            write_fraction=0.3,
            zipf_skew=1.1,
            seed=21,
        )

        def arm(budgeted: bool) -> SimLoadHarness:
            options = SimLoadOptions(
                variant="optimized",
                budget=(
                    ClientStateBudget(hot_entries=64) if budgeted else None
                ),
                secret_cache=1024 if budgeted else 10_000_000,
                retransmit_interval=30.0,
            )
            return SimLoadHarness(profile, options)

        budgeted, unbounded = arm(True), arm(False)
        budgeted_report = budgeted.run()
        unbounded_report = unbounded.run()

        assert budgeted_report.distinct_identities >= 100_000
        assert budgeted_report.ops_digest == unbounded_report.ops_digest
        assert budgeted.object_fingerprints() == unbounded.object_fingerprints()
        ratio = budgeted.tracked_entries() / unbounded.tracked_entries()
        assert ratio <= 0.10, f"tracked ratio {ratio:.3f} exceeds 0.10"


class TestSloJudgment:
    def _hist(self, values) -> LatencyHistogram:
        hist = LatencyHistogram()
        for value in values:
            hist.record(value)
        return hist

    def test_latency_ceilings_and_completion_floor(self):
        write = self._hist([0.01, 0.02, 0.03])
        read = self._hist([0.001])
        verdicts = judge_slos(
            DEFAULT_SLOS,
            write_hist=write,
            read_hist=read,
            completion_fraction=1.0,
        )
        assert all(v.ok for v in verdicts)

        verdicts = judge_slos(
            (SloTarget("write.p95", 0.005), SloTarget("completion", 0.999)),
            write_hist=write,
            read_hist=read,
            completion_fraction=0.5,
        )
        assert [v.ok for v in verdicts] == [False, False]

    def test_empty_histogram_passes_trivially(self):
        verdicts = judge_slos(
            (SloTarget("read.p99", 0.001),),
            write_hist=self._hist([]),
            read_hist=self._hist([]),
            completion_fraction=1.0,
        )
        assert verdicts[0].ok

    def test_unknown_metric_rejected(self):
        with pytest.raises(SimulationError):
            judge_slos(
                (SloTarget("commit.p95", 0.1),),
                write_hist=self._hist([]),
                read_hist=self._hist([]),
                completion_fraction=1.0,
            )


class TestTcpHarness:
    def test_small_tcp_run(self):
        profile = LoadProfile(
            rate=40.0,
            duration=1.0,
            identities=50,
            objects=4,
            write_fraction=0.5,
            seed=13,
        )
        report = run_tcp_load(profile, variant="optimized")
        assert report.arrivals > 10
        assert report.failed == 0
        assert report.completed == report.arrivals
        assert report.distinct_identities == min(report.arrivals, 50)
        assert report.elapsed > 0
        json.dumps(report.to_wire())
