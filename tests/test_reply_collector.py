"""Direct unit tests for the per-phase quorum rounds and reply collector."""

from __future__ import annotations

import pytest

from repro.core import make_system
from repro.core.messages import ReadTsRequest
from repro.core.phases import QuorumRound


@pytest.fixture
def config():
    return make_system(f=1, seed=b"collector")


MSG = ReadTsRequest(nonce=b"\x01" * 16)


def collect(config, validator):
    """A bare collector: a round with no request side."""
    return QuorumRound(config, None, validator)


class TestReplyCollector:
    def test_accepts_valid_reply(self, config):
        collector = collect(config, lambda s, m: m)
        assert collector.add("replica:0", MSG)
        assert collector.count == 1
        assert collector.responders() == {"replica:0"}

    def test_rejects_duplicate_sender(self, config):
        collector = collect(config, lambda s, m: m)
        assert collector.add("replica:0", MSG)
        assert not collector.add("replica:0", MSG)
        assert collector.count == 1

    def test_first_reply_per_sender_wins(self, config):
        """A Byzantine replica cannot revise its vote within a phase."""
        seen = []
        collector = collect(config, lambda s, m: (s, len(seen)))
        collector.add("replica:0", MSG)
        collector.add("replica:0", MSG)
        assert collector.replies["replica:0"] == ("replica:0", 0)

    def test_rejects_non_replicas(self, config):
        collector = collect(config, lambda s, m: m)
        assert not collector.add("client:mallory", MSG)
        assert not collector.add("replica:99", MSG)
        assert collector.count == 0

    def test_validator_rejection(self, config):
        collector = collect(config, lambda s, m: None)
        assert not collector.add("replica:0", MSG)
        # A later valid reply from the same sender is still accepted: the
        # invalid one did not consume the sender's slot.
        collector._validator = lambda s, m: m
        assert collector.add("replica:0", MSG)

    def test_quorum_threshold(self, config):
        collector = collect(config, lambda s, m: m)
        for index in range(2):
            collector.add(f"replica:{index}", MSG)
        assert not collector.have_quorum
        collector.add("replica:2", MSG)
        assert collector.have_quorum

    def test_missing_lists_non_responders(self, config):
        collector = collect(config, lambda s, m: m)
        collector.add("replica:1", MSG)
        assert collector.missing() == ("replica:0", "replica:2", "replica:3")

    def test_validator_return_value_stored(self, config):
        collector = collect(config, lambda s, m: ("derived", s))
        collector.add("replica:2", MSG)
        assert collector.replies["replica:2"] == ("derived", "replica:2")


class TestQuorumRound:
    def test_collector_alias_is_gone(self, config):
        """One shared implementation (one-vote guard lives in one place)."""
        import repro.core
        import repro.core.operations
        import repro.core.phases

        for module in (repro.core, repro.core.operations, repro.core.phases):
            assert not hasattr(module, "ReplyCollector")

    def test_begin_targets_all_replicas(self, config):
        round_ = QuorumRound(config, MSG, lambda s, m: m)
        sends = round_.begin()
        assert [s.dest for s in sends] == list(config.quorums.replica_ids)
        assert all(s.message is MSG for s in sends)

    def test_prefer_quorum_trims_initial_batch(self, config):
        config.prefer_quorum = True
        round_ = QuorumRound(config, MSG, lambda s, m: m)
        assert len(round_.begin()) == config.quorum_size

    def test_retransmit_targets_only_missing(self, config):
        round_ = QuorumRound(config, MSG, lambda s, m: m)
        round_.begin()
        round_.add("replica:1", MSG)
        assert [s.dest for s in round_.retransmit()] == [
            "replica:0",
            "replica:2",
            "replica:3",
        ]

    def test_credit_counts_toward_quorum_and_skips_retransmit(self, config):
        round_ = QuorumRound(config, MSG, lambda s, m: m)
        round_.credit("replica:0", "vouch")
        round_.credit("replica:1", "vouch")
        assert round_.count == 2
        assert "replica:0" not in round_.missing()
        round_.add("replica:2", MSG)
        assert round_.have_quorum

    def test_credit_cannot_double_vote(self, config):
        """Neither two credits nor a credit plus a reply give two votes."""
        round_ = QuorumRound(config, MSG, lambda s, m: m)
        assert round_.credit("replica:0", "first")
        assert not round_.credit("replica:0", "second")
        assert not round_.add("replica:0", MSG)
        assert round_.replies["replica:0"] == "first"
        assert round_.count == 1

    def test_credit_rejects_non_replicas(self, config):
        round_ = QuorumRound(config, MSG, lambda s, m: m)
        assert not round_.credit("client:mallory", "vote")
        assert not round_.credit("replica:99", "vote")
        assert round_.count == 0

    def test_prefill_seeds_votes(self, config):
        round_ = QuorumRound(
            config,
            MSG,
            lambda s, m: m,
            targets=("replica:2", "replica:3"),
            prefill={"replica:0": None, "replica:1": None},
        )
        assert round_.count == 2
        assert [s.dest for s in round_.begin()] == ["replica:2", "replica:3"]
        assert set(round_.missing()) == {"replica:2", "replica:3"}

    def test_explicit_threshold(self, config):
        round_ = QuorumRound(config, MSG, lambda s, m: m, threshold=1)
        assert not round_.have_quorum
        round_.add("replica:3", MSG)
        assert round_.have_quorum


class TestCostModelCoverage:
    def test_read_bytes_with_write_back(self):
        from repro.analysis import CostModel
        from repro.core import QuorumSystem

        model = CostModel(QuorumSystem.bft_bc(1))
        assert model.read_bytes(write_back=True) > model.read_bytes()

    def test_strong_write_phases_constant(self):
        from repro.analysis import WRITE_PHASES

        normal, worst = WRITE_PHASES["strong"]
        assert normal == 3 and worst == 5

    def test_optimized_bytes_below_base(self):
        from repro.analysis import CostModel
        from repro.core import QuorumSystem

        model = CostModel(QuorumSystem.bft_bc(2))
        assert model.write_bytes("optimized") < model.write_bytes("base")
