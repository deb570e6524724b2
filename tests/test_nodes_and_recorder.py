"""Tests for the ClientNode driver and the history recorder."""

from __future__ import annotations

import pytest

from repro import LinkProfile, build_cluster
from repro.core.messages import ReadRequest
from repro.core.operations import Send
from repro.sim import (
    HistoryRecorder,
    ReplicaHost,
    Scheduler,
    SimHarness,
    read_script,
    write_script,
)
from repro.sim.nodes import MachineHost
from repro.spec import Invocation, Response, StopEvent


class TestHistoryRecorder:
    def test_records_virtual_time(self):
        scheduler = Scheduler()
        recorder = HistoryRecorder(lambda: scheduler.now)
        scheduler.call_later(1.5, lambda: recorder.record_invocation("c", "write", 1))
        scheduler.call_later(2.5, lambda: recorder.record_response("c", "ok"))
        scheduler.run_until_idle()
        events = recorder.history.events
        assert isinstance(events[0], Invocation) and events[0].time == 1.5
        assert isinstance(events[1], Response) and events[1].time == 2.5

    def test_records_stop_events(self):
        scheduler = Scheduler()
        recorder = HistoryRecorder(lambda: scheduler.now)
        recorder.record_stop("client:bad")
        assert isinstance(recorder.history.events[0], StopEvent)

    def test_object_name(self):
        scheduler = Scheduler()
        recorder = HistoryRecorder(lambda: scheduler.now, obj="register-7")
        recorder.record_invocation("c", "read")
        assert recorder.history.events[0].obj == "register-7"


class TestClientNodeDriving:
    def test_think_time_spaces_operations(self):
        cluster = build_cluster(f=1, seed=90)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 3), think_time=0.5)
        cluster.run(max_time=60)
        ops = cluster.history.operations()
        gaps = [
            ops[i + 1].invoked_at - ops[i].responded_at for i in range(len(ops) - 1)
        ]
        assert all(gap >= 0.5 for gap in gaps)

    def test_start_delay(self):
        cluster = build_cluster(f=1, seed=91)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 1), start_delay=2.0)
        cluster.run(max_time=60)
        assert cluster.history.operations()[0].invoked_at >= 2.0

    def test_on_done_callback(self):
        cluster = build_cluster(f=1, seed=92)
        node = cluster.add_client("w")
        fired = []
        node.run_script(write_script("client:w", 1), on_done=lambda: fired.append(1))
        cluster.run(max_time=60)
        assert fired == [1]

    def test_empty_script_is_immediately_done(self):
        cluster = build_cluster(f=1, seed=93)
        node = cluster.add_client("w")
        node.run_script([])
        assert node.done

    def test_unknown_step_kind_rejected(self):
        cluster = build_cluster(f=1, seed=94)
        node = cluster.add_client("w")
        node.run_script([("delete", None)])
        with pytest.raises(ValueError):
            cluster.run(max_time=5)

    def test_retransmit_ticks_counted_under_loss(self):
        from repro import LinkProfile

        cluster = build_cluster(
            f=1, seed=95, profile=LinkProfile(drop_rate=0.4, max_delay=0.01)
        )
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 3))
        cluster.run(max_time=300)
        assert cluster.metrics.retransmit_ticks > 0

    def test_no_retransmits_on_reliable_network(self):
        cluster = build_cluster(f=1, seed=96)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 3))
        cluster.run(max_time=60)
        assert cluster.metrics.retransmit_ticks == 0

    def test_sequential_scripts_on_same_node(self):
        cluster = build_cluster(f=1, seed=97)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 2))
        cluster.run(max_time=60)
        node.run_script(read_script(1))
        cluster.run(max_time=60)
        assert cluster.metrics.operations == 3
        assert node.client.last_result == ("client:w", 1, None)


class _Echo:
    """A replica that answers every message with itself."""

    node_id = "replica:echo"

    def handle(self, src, message):
        return message


class _StubMachine:
    """Pings the echo replica on every tick; done on the first reply, or
    on the third tick."""

    node_id = "client:stub"

    def __init__(self, finish_on_tick):
        self.finish_on_tick = finish_on_tick
        self.done = False
        self.ticks = self.ticks_after_done = self.replies = 0

    def ping(self):
        return [Send(dest=_Echo.node_id, message=ReadRequest(nonce=b"ping"))]

    def deliver(self, src, message):
        self.replies += 1
        if self.finish_on_tick is None:
            self.done = True
        return []

    def retransmit(self):
        self.ticks_after_done += self.done
        self.ticks += 1
        if self.ticks == self.finish_on_tick:
            self.done = True
        return self.ping()


class _CountingHost(MachineHost):
    ended = 0

    def _on_done(self):
        self.ended += 1


class TestMachineHostContract:
    """The one simulated client host: one timer, one end per operation."""

    def _host(self, finish_on_tick):
        # A 0.24 s round trip outlasts four 0.05 s timer periods.
        harness = SimHarness(
            profile=LinkProfile(min_delay=0.12, max_delay=0.12), seed=0
        )
        ReplicaHost(_Echo(), harness.network, harness.scheduler)
        machine = _StubMachine(finish_on_tick)
        host = _CountingHost(machine, harness.network, harness.scheduler)
        live_timers = []

        def sample(*_event):
            live_timers.append(
                sum(
                    1
                    for event in harness.scheduler._queue
                    if not event.cancelled
                    and getattr(event.action, "__func__", None)
                    is MachineHost._tick
                )
            )

        harness.network.tap = sample  # runs on every send and delivery
        host.begin(machine.ping())
        harness._track(machine)
        harness.run(max_time=10)
        harness.settle(1.0)  # stragglers arrive; no tick may follow
        return harness, machine, host, live_timers

    @pytest.mark.parametrize(
        "finish_on_tick", [None, 3], ids=["on-delivery", "on-third-tick"]
    )
    def test_finished_once_with_one_timer_and_no_tick_after(
        self, finish_on_tick
    ):
        harness, machine, host, live_timers = self._host(finish_on_tick)
        assert machine.done and host.ended == 1
        assert max(live_timers) == 1
        assert machine.ticks_after_done == 0
        # Either way every other ping's reply lands after the end, and
        # none of them ends the operation again.
        if finish_on_tick is None:
            assert machine.ticks == 4 and machine.replies == 5
        else:
            assert machine.ticks == 3 and machine.replies == 4
        host.close()
        assert machine.node_id not in harness.network.node_ids
