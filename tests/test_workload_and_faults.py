"""Tests for workload generation and fault schedules."""

from __future__ import annotations

from repro.net.simnet import LinkProfile, SimNetwork
from repro.sim import FaultSchedule, Scheduler
from repro.sim.workload import (
    alternating_script,
    make_scripts,
    mixed_script,
    read_script,
    value_for,
    write_script,
)


class TestWorkloads:
    def test_write_script_unique_values(self):
        script = write_script("client:w", 10)
        assert len(script) == 10
        values = [arg for _, arg in script]
        assert len(set(values)) == 10
        assert all(kind == "write" for kind, _ in script)

    def test_value_convention(self):
        v = value_for("client:w", 3, "payload")
        assert v == ("client:w", 3, "payload")

    def test_payload_size(self):
        script = write_script("client:w", 1, payload_size=100)
        assert len(script[0][1][2]) == 100

    def test_read_script(self):
        script = read_script(5)
        assert script == [("read", None)] * 5

    def test_alternating(self):
        script = alternating_script("client:w", 3)
        kinds = [kind for kind, _ in script]
        assert kinds == ["write", "read"] * 3

    def test_mixed_script_fraction(self):
        script = mixed_script("client:w", 1000, write_fraction=0.3, seed=1)
        writes = sum(1 for kind, _ in script if kind == "write")
        assert 200 < writes < 400

    def test_mixed_script_deterministic(self):
        a = mixed_script("client:w", 50, seed=9)
        b = mixed_script("client:w", 50, seed=9)
        assert a == b

    def test_make_scripts_distinct_seeds(self):
        scripts = make_scripts(["client:a", "client:b"], 50, seed=0)
        kinds_a = [k for k, _ in scripts["client:a"]]
        kinds_b = [k for k, _ in scripts["client:b"]]
        assert kinds_a != kinds_b  # different per-client randomness

    def test_cross_client_values_unique(self):
        scripts = make_scripts(["client:a", "client:b"], 50, seed=0)
        values = [
            arg
            for script in scripts.values()
            for kind, arg in script
            if kind == "write"
        ]
        assert len(values) == len(set(values))


class TestFaultSchedules:
    def test_crash_at_time(self):
        sched = Scheduler()
        net = SimNetwork(sched)
        FaultSchedule().crash(1.0, "replica:0").install(sched, net)
        assert not net.is_crashed("replica:0")
        sched.run(until=2.0)
        assert net.is_crashed("replica:0")

    def test_crash_then_recover(self):
        sched = Scheduler()
        net = SimNetwork(sched)
        schedule = FaultSchedule().crash(1.0, "r").recover(2.0, "r")
        schedule.install(sched, net)
        sched.run(until=1.5)
        assert net.is_crashed("r")
        sched.run(until=3.0)
        assert not net.is_crashed("r")

    def test_partition_heal(self):
        sched = Scheduler()
        net = SimNetwork(sched)
        got = []
        net.register("b", lambda s, m: got.append(m))
        schedule = FaultSchedule().partition(1.0, "a", "b").heal(2.0, "a", "b")
        schedule.install(sched, net)
        sched.run(until=1.5)
        from repro.core.messages import ReadTsRequest

        net.send("a", "b", ReadTsRequest(nonce=b"x"))
        sched.run(until=1.9)
        assert got == []
        sched.run(until=2.5)
        net.send("a", "b", ReadTsRequest(nonce=b"y"))
        sched.run(until=3.0)
        assert len(got) == 1

    def test_degrade_link(self):
        sched = Scheduler()
        net = SimNetwork(sched)
        got = []
        net.register("b", lambda s, m: got.append(m))
        FaultSchedule().degrade(
            1.0, "a", "b", LinkProfile(drop_rate=1.0)
        ).install(sched, net)
        sched.run(until=2.0)
        from repro.core.messages import ReadTsRequest

        net.send("a", "b", ReadTsRequest(nonce=b"x"))
        sched.run(until=3.0)
        assert got == []

    def test_descriptions(self):
        schedule = FaultSchedule().crash(1.0, "r").partition(2.0, "a", "b")
        descriptions = [step.description for step in schedule.steps()]
        assert descriptions == ["crash r", "partition a | b"]
        assert [step.acts_on for step in schedule.steps()] == ["network"] * 2


class TestFaultScheduleHardening:
    """The validation added with the chaos engine: schedules that could
    fire nonsense (overlapping restarts, double installs) are rejected
    loudly instead of corrupting an episode."""

    def test_crash_restart_requires_positive_down_time(self):
        import pytest

        from repro.errors import SimulationError

        schedule = FaultSchedule()
        with pytest.raises(SimulationError, match="must be positive"):
            schedule.crash_restart(1.0, "replica:0", down_for=0.0)

    def test_overlapping_restart_windows_rejected(self):
        import pytest

        from repro.errors import SimulationError

        schedule = FaultSchedule()
        schedule.crash_restart(1.0, "replica:0", down_for=2.0)
        with pytest.raises(SimulationError, match="overlaps"):
            schedule.crash_restart(2.5, "replica:0", down_for=1.0)

    def test_adjacent_and_cross_node_windows_allowed(self):
        schedule = FaultSchedule()
        schedule.crash_restart(1.0, "replica:0", down_for=2.0)
        schedule.crash_restart(3.0, "replica:0", down_for=1.0)  # touches, ok
        schedule.crash_restart(1.5, "replica:1", down_for=2.0)  # other node
        assert [step.acts_on for step in schedule.steps()] == ["node"] * 6

    def test_double_install_rejected(self):
        import pytest

        from repro.errors import SimulationError

        sched = Scheduler()
        net = SimNetwork(sched)
        schedule = FaultSchedule()
        schedule.crash(1.0, "a")
        schedule.install(sched, net)
        with pytest.raises(SimulationError, match="already installed"):
            schedule.install(sched, net)

    def test_failed_install_leaves_schedule_usable(self):
        """Validation runs before arming: an install that fails on an
        unknown node arms nothing and the schedule can be installed again
        once the caller fixes the node map."""
        import pytest

        from repro.errors import SimulationError

        sched = Scheduler()
        net = SimNetwork(sched)
        schedule = FaultSchedule()
        schedule.crash(1.0, "a")
        schedule.crash_restart(2.0, "replica:0", down_for=0.5)
        with pytest.raises(SimulationError, match="unknown node"):
            schedule.install(sched, net, nodes={})
        assert sched.pending == 0  # nothing was half-armed

        class FakeNode:
            def crash(self):
                pass

            def restart(self):
                pass

        schedule.install(sched, net, nodes={"replica:0": FakeNode()})
        assert sched.pending > 0
