"""Tests for the simulated unreliable network."""

from __future__ import annotations

import pytest

from repro.core.messages import ReadTsRequest
from repro.net.simnet import DROP_REASONS, LinkProfile, SimNetwork
from repro.sim import Scheduler
from repro.errors import NetworkError


def make_net(profile=None, seed=0):
    sched = Scheduler()
    return sched, SimNetwork(sched, profile=profile, seed=seed)


MSG = ReadTsRequest(nonce=b"\x01" * 16)


class TestDelivery:
    def test_basic_delivery(self):
        sched, net = make_net()
        got = []
        net.register("b", lambda src, msg: got.append((src, msg)))
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert got == [("a", MSG)]

    def test_delivery_is_delayed(self):
        sched, net = make_net(LinkProfile(min_delay=0.5, max_delay=0.5))
        times = []
        net.register("b", lambda src, msg: times.append(sched.now))
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert times == [0.5]

    def test_unknown_destination_dropped(self):
        sched, net = make_net()
        net.send("a", "ghost", MSG)
        sched.run_until_idle()
        assert net.stats.messages_dropped == 1

    def test_duplicate_registration_rejected(self):
        _, net = make_net()
        net.register("a", lambda s, m: None)
        with pytest.raises(NetworkError):
            net.register("a", lambda s, m: None)

    def test_reordering_occurs_with_jitter(self):
        sched, net = make_net(LinkProfile(min_delay=0.0, max_delay=1.0), seed=3)
        got = []
        net.register("b", lambda src, msg: got.append(msg.nonce))
        for i in range(20):
            net.send("a", "b", ReadTsRequest(nonce=bytes([i]) * 16))
        sched.run_until_idle()
        assert len(got) == 20
        assert got != sorted(got)  # some reordering happened


class TestLossAndCorruption:
    def test_full_loss(self):
        sched, net = make_net(LinkProfile(drop_rate=1.0))
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        for _ in range(10):
            net.send("a", "b", MSG)
        sched.run_until_idle()
        assert got == []
        assert net.stats.messages_dropped == 10

    def test_statistical_loss(self):
        sched, net = make_net(LinkProfile(drop_rate=0.5), seed=7)
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        for _ in range(200):
            net.send("a", "b", MSG)
        sched.run_until_idle()
        assert 40 < len(got) < 160

    def test_duplication(self):
        sched, net = make_net(LinkProfile(duplicate_rate=1.0))
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert len(got) == 2
        assert net.stats.messages_duplicated == 1

    def test_corruption_is_discarded_not_delivered(self):
        sched, net = make_net(LinkProfile(corrupt_rate=1.0), seed=1)
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        for _ in range(20):
            net.send("a", "b", MSG)
        sched.run_until_idle()
        # A flipped byte nearly always breaks parsing; anything delivered
        # must have parsed back into a real message.
        assert net.stats.messages_corrupted == 20
        for msg in got:
            assert isinstance(msg, ReadTsRequest)

    def test_invalid_profile_rejected(self):
        with pytest.raises(NetworkError):
            LinkProfile(drop_rate=1.5)
        with pytest.raises(NetworkError):
            LinkProfile(min_delay=2.0, max_delay=1.0)
        with pytest.raises(NetworkError):
            LinkProfile(duplicate_rate=-0.1)


class TestTopology:
    def test_partition_and_heal(self):
        sched, net = make_net()
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.partition("a", "b")
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert got == []
        net.heal("a", "b")
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert len(got) == 1

    def test_partition_is_bidirectional(self):
        sched, net = make_net()
        got = []
        net.register("a", lambda src, msg: got.append(msg))
        net.register("b", lambda src, msg: got.append(msg))
        net.partition("a", "b")
        net.send("b", "a", MSG)
        sched.run_until_idle()
        assert got == []

    def test_crash_and_recover(self):
        sched, net = make_net()
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.crash("b")
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert got == []
        net.recover("b")
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert len(got) == 1

    def test_crashed_sender_sends_nothing(self):
        sched, net = make_net()
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.crash("a")
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert got == []

    def test_message_in_flight_to_crashed_node_dropped(self):
        sched, net = make_net(LinkProfile(min_delay=1.0, max_delay=1.0))
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.send("a", "b", MSG)
        net.crash("b")  # crashes while the message is in flight
        sched.run_until_idle()
        assert got == []

    def test_per_link_profile_override(self):
        sched, net = make_net()
        got = []
        net.register("b", lambda src, msg: got.append(msg))
        net.register("c", lambda src, msg: got.append(msg))
        net.set_link_profile("a", "b", LinkProfile(drop_rate=1.0))
        net.send("a", "b", MSG)
        net.send("a", "c", MSG)
        sched.run_until_idle()
        assert len(got) == 1


class TestStats:
    def test_byte_accounting(self):
        sched, net = make_net()
        net.register("b", lambda src, msg: None)
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert net.stats.bytes_sent > 0
        assert net.stats.bytes_delivered == net.stats.bytes_sent
        assert net.stats.sent_by_kind == {"READ-TS": 1}

    def test_determinism_under_seed(self):
        def run(seed):
            sched, net = make_net(LinkProfile(drop_rate=0.3, max_delay=0.5), seed=seed)
            got = []
            net.register("b", lambda src, msg: got.append(sched.now))
            for _ in range(50):
                net.send("a", "b", MSG)
            sched.run_until_idle()
            return got
        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_reset(self):
        sched, net = make_net()
        net.register("b", lambda src, msg: None)
        net.send("a", "b", MSG)
        sched.run_until_idle()
        net.stats.reset()
        assert net.stats.messages_sent == 0
        assert net.stats.bytes_by_kind == {}


class TestDropAccounting:
    """Dropped messages are attributed to their real kind and a reason."""

    def test_link_loss_reason_and_kind(self):
        sched, net = make_net(LinkProfile(drop_rate=1.0))
        net.register("b", lambda s, m: None)
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert net.stats.dropped_by_reason == {"link-loss": 1}
        assert net.stats.dropped_by_kind == {"READ-TS": 1}

    def test_partitioned_reason(self):
        sched, net = make_net()
        net.register("b", lambda s, m: None)
        net.partition("a", "b")
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert net.stats.dropped_by_reason == {"partitioned": 1}

    def test_crashed_source_reason(self):
        sched, net = make_net()
        net.register("b", lambda s, m: None)
        net.crash("a")
        net.send("a", "b", MSG)
        sched.run_until_idle()
        assert net.stats.dropped_by_reason == {"crashed": 1}

    def test_crashed_destination_counts_real_kind(self):
        """A message in flight when its destination crashes is dropped with
        the 'crashed' reason under the message's actual kind — the
        regression this accounting split pins down."""
        sched, net = make_net(LinkProfile(min_delay=0.5, max_delay=0.5))
        net.register("b", lambda s, m: None)
        net.send("a", "b", MSG)
        net.crash("b")
        sched.run_until_idle()
        assert net.stats.dropped_by_reason == {"crashed": 1}
        assert net.stats.dropped_by_kind == {"READ-TS": 1}

    def test_unregistered_destination_reason(self):
        sched, net = make_net()
        net.send("a", "ghost", MSG)
        sched.run_until_idle()
        assert net.stats.dropped_by_reason == {"unregistered": 1}

    def test_corruption_parse_failure_reason(self):
        sched, net = make_net(LinkProfile(corrupt_rate=1.0))
        got = []
        net.register("b", lambda s, m: got.append(m))
        for _ in range(5):
            net.send("a", "b", MSG)
        sched.run_until_idle()
        # Bit flips that break parsing are dropped as parse-failure; flips
        # that survive parsing deliver (possibly altered) messages.
        dropped = net.stats.dropped_by_reason.get("parse-failure", 0)
        assert dropped + len(got) == 5
        assert net.stats.messages_dropped == dropped

    def test_totals_match_reason_split(self):
        sched, net = make_net(LinkProfile(drop_rate=0.5), seed=5)
        net.register("b", lambda s, m: None)
        for _ in range(40):
            net.send("a", "b", MSG)
        sched.run_until_idle()
        assert net.stats.messages_dropped == sum(
            net.stats.dropped_by_reason.values()
        )
        assert net.stats.messages_dropped == sum(
            net.stats.dropped_by_kind.values()
        )

    def test_every_recorded_reason_is_declared(self):
        """An episode that blocks kinds, partitions, crashes and corrupts
        records its drops only under the reasons DROP_REASONS lists."""
        sched, net = make_net(
            LinkProfile(drop_rate=0.1, corrupt_rate=0.5), seed=3
        )
        for node in ("b", "c", "d", "e"):
            net.register(node, lambda s, m: None)
        net.block_kinds("b", ("READ-TS",))
        net.partition("a", "c")
        net.crash("d")
        for i in range(20):
            message = ReadTsRequest(nonce=bytes([i]) * 16)
            net.broadcast("a", ("b", "c", "d", "e", "ghost"), message)
        sched.run_until_idle()
        reasons = set(net.stats.dropped_by_reason)
        assert reasons == set(DROP_REASONS)

    def test_reset_clears_split_counters(self):
        sched, net = make_net(LinkProfile(drop_rate=1.0))
        net.register("b", lambda s, m: None)
        net.send("a", "b", MSG)
        sched.run_until_idle()
        net.stats.reset()
        assert net.stats.dropped_by_reason == {}
        assert net.stats.dropped_by_kind == {}
        assert net.stats.messages_reordered == 0


class TestReorderRate:
    def test_reorder_rate_validated(self):
        with pytest.raises(NetworkError):
            LinkProfile(reorder_rate=1.5)
        with pytest.raises(NetworkError):
            LinkProfile(reorder_rate=-0.1)

    def test_reordering_forced_and_counted(self):
        sched, net = make_net(
            LinkProfile(min_delay=0.01, max_delay=0.01, reorder_rate=0.5),
            seed=7,
        )
        got = []
        net.register("b", lambda src, msg: got.append(msg.nonce))
        for i in range(30):
            net.send("a", "b", ReadTsRequest(nonce=bytes([i]) * 16))
        sched.run_until_idle()
        assert len(got) == 30
        assert got != sorted(got)
        assert net.stats.messages_reordered > 0

    def test_zero_rate_consumes_no_extra_randomness(self):
        """reorder_rate=0 must leave the RNG draw sequence untouched, so
        seeded runs predating the knob replay identically."""
        def deliveries(profile):
            sched, net = make_net(profile, seed=11)
            times = []
            net.register("b", lambda src, msg: times.append(sched.now))
            for _ in range(10):
                net.send("a", "b", MSG)
            sched.run_until_idle()
            return times

        with_knob = deliveries(
            LinkProfile(min_delay=0.0, max_delay=0.5, reorder_rate=0.0)
        )
        without = deliveries(LinkProfile(min_delay=0.0, max_delay=0.5))
        assert with_knob == without


class TestDecodeOnce:
    """The copies of one frame in flight share one decoded message."""

    REPLICAS = ("r0", "r1", "r2", "r3")

    def _fan_out(self, net):
        got = {}
        for node in self.REPLICAS:
            net.register(node, lambda src, msg, node=node: got.setdefault(node, msg))
        net.broadcast("a", self.REPLICAS, ReadTsRequest(nonce=b"\x02" * 16))
        return got

    def test_broadcast_copies_share_one_decode(self):
        sched, net = make_net()
        sent = ReadTsRequest(nonce=b"\x02" * 16)
        got = self._fan_out(net)
        sched.run_until_idle()
        first = got["r0"]
        assert first == sent and first is not sent
        assert all(got[node] is first for node in self.REPLICAS)
        assert net.stats.messages_decoded == 1
        assert net.stats.messages_delivered == 4

    def test_corrupted_copy_is_decoded_on_its_own(self):
        # Seed 1 flips a bit that breaks parsing (other seeds may flip one
        # inside the nonce, which parses).
        sched, net = make_net(seed=1)
        net.set_link_profile("a", "r3", LinkProfile(corrupt_rate=1.0))
        got = self._fan_out(net)
        sched.run_until_idle()
        assert sorted(got) == ["r0", "r1", "r2"]
        assert got["r0"] is got["r1"] is got["r2"]
        assert net.stats.messages_decoded == 2
        assert net.stats.dropped_by_reason == {"parse-failure": 1}

    def test_in_flight_table_drains_under_every_fault(self):
        profile = LinkProfile(
            min_delay=0.001,
            max_delay=0.05,
            drop_rate=0.1,
            duplicate_rate=0.2,
            corrupt_rate=0.1,
            reorder_rate=0.2,
        )
        sched, net = make_net(profile, seed=4)
        nodes = ("a", "b") + self.REPLICAS
        echoed = set()

        def echo(node):
            def handler(src, msg):
                # Each node answers once per distinct message with the very
                # object it got, so echoes re-send shared frames in flight.
                if (node, msg.nonce) not in echoed:
                    echoed.add((node, msg.nonce))
                    net.send(node, src, msg)
            return handler

        for node in nodes:
            net.register(node, echo(node))
        net.partition("b", "r1")
        sched.call_later(0.02, lambda: net.crash("r2"))
        for i in range(40):
            sender = nodes[i % 2]
            net.broadcast(sender, self.REPLICAS, ReadTsRequest(nonce=bytes([i]) * 16))
        sched.run_until_idle()
        stats = net.stats
        assert stats.messages_corrupted and stats.messages_duplicated
        assert stats.messages_reordered
        assert {"link-loss", "partitioned", "crashed", "parse-failure"} <= set(
            stats.dropped_by_reason
        )
        assert stats.messages_decoded < stats.messages_delivered
        assert net._in_flight == {}
