"""Unit tests for ShardReplica configuration duties and the Reconfigurator.

These drive the sans-I/O objects directly (no network, no scheduler):
message in, reply out.  The integration-level behaviour under live traffic
is covered by tests/test_shard_cluster.py.
"""

from __future__ import annotations

import pytest

from repro.core import make_system
from repro.core.messages import ReadTsRequest, message_to_wire
from repro.core.multiobject import EpochStaleReply, ObjectMessage
from repro.errors import ProtocolError
from repro.shard import (
    ConfigSignReply,
    ConfigSignRequest,
    DirectoryReply,
    DirectoryRequest,
    InstallEpochAck,
    InstallEpochRequest,
    Reconfigurator,
    ShardConfig,
    ShardDirectory,
    ShardReplica,
    StateTransferReply,
    StateTransferRequest,
)

MEMBERS = tuple(f"replica:g{i}" for i in range(4))
SHARD = "shard:0"


def make_world(extra=("replica:gX", "replica:gY")):
    template = make_system(f=1, seed=b"shard-reconfig-test")
    for node in MEMBERS + tuple(extra):
        template.registry.register(node)
    genesis = ShardConfig(shard=SHARD, epoch=0, members=MEMBERS, f=1)
    return template, genesis


def make_replica(template, genesis, node_id, *, clock=None, **kwargs):
    directory = ShardDirectory({SHARD: genesis}, template.scheme)
    return ShardReplica(
        node_id, SHARD, directory, template, clock=clock, **kwargs
    )


def proposal_for(genesis, remove, add):
    members = tuple(add if m == remove else m for m in genesis.members)
    return ShardConfig(shard=SHARD, epoch=1, members=members, f=genesis.f)


class TestConfigSigning:
    def test_endorses_valid_successor(self):
        template, genesis = make_world()
        replica = make_replica(template, genesis, MEMBERS[0])
        proposal = proposal_for(genesis, MEMBERS[3], "replica:gX")
        reply = replica.handle(
            "admin:1", ConfigSignRequest(config=proposal.to_wire())
        )
        assert isinstance(reply, ConfigSignReply)
        assert reply.epoch == 1
        from repro.crypto.signatures import Signature

        signature = Signature.from_wire(reply.signature)
        assert signature.signer == MEMBERS[0]
        assert template.scheme.verify(signature, proposal.statement_bytes())

    def test_refuses_equivocation(self):
        """One successor per epoch: a second, different member set for the
        same epoch gets no signature — the rule quorum-signed entries'
        uniqueness rests on."""
        template, genesis = make_world()
        replica = make_replica(template, genesis, MEMBERS[0])
        first = proposal_for(genesis, MEMBERS[3], "replica:gX")
        second = proposal_for(genesis, MEMBERS[3], "replica:gY")
        assert replica.handle(
            "admin:1", ConfigSignRequest(config=first.to_wire())
        ) is not None
        assert replica.handle(
            "admin:2", ConfigSignRequest(config=second.to_wire())
        ) is None
        assert replica.sign_conflicts == 1
        # Re-asking for the *same* proposal is fine (idempotent retransmit).
        assert replica.handle(
            "admin:1", ConfigSignRequest(config=first.to_wire())
        ) is not None

    def test_refuses_epoch_gap_and_churn(self):
        template, genesis = make_world()
        replica = make_replica(template, genesis, MEMBERS[0])
        gap = ShardConfig(
            shard=SHARD,
            epoch=2,
            members=proposal_for(genesis, MEMBERS[3], "replica:gX").members,
            f=1,
        )
        assert replica.handle(
            "admin:1", ConfigSignRequest(config=gap.to_wire())
        ) is None
        churn = ShardConfig(
            shard=SHARD,
            epoch=1,
            members=(MEMBERS[0], MEMBERS[1], "replica:gX", "replica:gY"),
            f=1,
        )
        assert replica.handle(
            "admin:1", ConfigSignRequest(config=churn.to_wire())
        ) is None

    def test_refuses_garbage(self):
        template, genesis = make_world()
        replica = make_replica(template, genesis, MEMBERS[0])
        assert replica.handle(
            "admin:1", ConfigSignRequest(config={"nope": 1})
        ) is None


class TestEpochInstall:
    def _signed_entry(self, template, genesis, proposal):
        from repro.shard import DirectoryEntry

        return DirectoryEntry(
            config=proposal,
            signatures=tuple(
                template.scheme.sign(m, proposal.statement_bytes())
                for m in MEMBERS[:3]
            ),
        )

    def test_adopts_and_acks(self):
        template, genesis = make_world()
        replica = make_replica(template, genesis, MEMBERS[0])
        proposal = proposal_for(genesis, MEMBERS[3], "replica:gX")
        entry = self._signed_entry(template, genesis, proposal)
        ack = replica.handle(
            "admin:1", InstallEpochRequest(entry=entry.to_wire())
        )
        assert isinstance(ack, InstallEpochAck)
        assert ack.epoch == 1
        assert replica.epoch == 1
        assert not replica.retired
        # Idempotent re-install re-acks without changing anything.
        again = replica.handle(
            "admin:1", InstallEpochRequest(entry=entry.to_wire())
        )
        assert isinstance(again, InstallEpochAck) and again.epoch == 1

    def test_removed_member_retires_and_rebuffs_traffic(self):
        template, genesis = make_world()
        replica = make_replica(template, genesis, MEMBERS[3])
        proposal = proposal_for(genesis, MEMBERS[3], "replica:gX")
        entry = self._signed_entry(template, genesis, proposal)
        replica.handle("admin:1", InstallEpochRequest(entry=entry.to_wire()))
        assert replica.retired
        envelope = ObjectMessage(
            obj="x",
            payload=message_to_wire(ReadTsRequest(nonce=b"\x01" * 16)),
            epoch=1,
        )
        reply = replica.handle("client:kv", envelope)
        assert isinstance(reply, EpochStaleReply)

    def test_unsigned_entry_ignored(self):
        template, genesis = make_world()
        replica = make_replica(template, genesis, MEMBERS[0])
        from repro.shard import DirectoryEntry

        proposal = proposal_for(genesis, MEMBERS[3], "replica:gX")
        entry = DirectoryEntry(
            config=proposal,
            signatures=(
                template.scheme.sign(MEMBERS[0], proposal.statement_bytes()),
            ),
        )
        assert replica.handle(
            "admin:1", InstallEpochRequest(entry=entry.to_wire())
        ) is None
        assert replica.epoch == 0

    def test_handoff_window_closes_on_the_clock(self):
        template, genesis = make_world()
        now = [0.0]
        replica = make_replica(
            template, genesis, MEMBERS[0], clock=lambda: now[0], handoff=0.5
        )
        proposal = proposal_for(genesis, MEMBERS[3], "replica:gX")
        entry = self._signed_entry(template, genesis, proposal)
        replica.handle("admin:1", InstallEpochRequest(entry=entry.to_wire()))

        def probe(epoch):
            """A garbage-payload envelope: epoch gate first, then discard."""
            return replica.handle(
                "client:kv",
                ObjectMessage(obj="x", payload={"kind": "?"}, epoch=epoch),
            )

        # Inside the window the superseded tag still passes the gate (the
        # envelope then dies on its garbage payload, without a stale reply).
        assert probe(0) is None
        discards = replica.inner.envelope_discards
        assert discards >= 1
        # A genuinely foreign epoch is rebuffed even inside the window.
        assert isinstance(probe(7), EpochStaleReply)
        # Past the deadline the old tag is rebuffed too.
        now[0] = 1.0
        reply = probe(0)
        assert isinstance(reply, EpochStaleReply)
        assert reply.epoch == 1


class TestStateTransfer:
    def test_serves_directory_and_transfer(self):
        template, genesis = make_world()
        replica = make_replica(template, genesis, MEMBERS[0])
        reply = replica.handle("anyone", DirectoryRequest(shard=SHARD))
        assert isinstance(reply, DirectoryReply)
        assert reply.entries == ()  # nothing beyond genesis yet
        xfer = replica.handle(
            "replica:gX", StateTransferRequest(shard=SHARD, nonce=b"n" * 16)
        )
        assert isinstance(xfer, StateTransferReply)
        assert replica.transfers_served == 1

    def test_joiner_blocks_traffic_until_ready(self):
        template, genesis = make_world()
        joiner = make_replica(
            template, genesis, "replica:gX", bootstrap_from=genesis
        )
        assert not joiner.ready
        envelope = ObjectMessage(
            obj="x",
            payload=message_to_wire(ReadTsRequest(nonce=b"\x01" * 16)),
            epoch=0,
        )
        assert joiner.handle("client:kv", envelope) is None
        assert joiner.not_ready_drops == 1
        # A not-ready replica also refuses to endorse or serve transfers.
        proposal = proposal_for(genesis, MEMBERS[3], "replica:gY")
        assert joiner.handle(
            "admin:1", ConfigSignRequest(config=proposal.to_wire())
        ) is None
        assert joiner.handle(
            "replica:gY", StateTransferRequest(shard=SHARD, nonce=b"n" * 16)
        ) is None

    def test_bootstrap_validates_and_adopts(self):
        template, genesis = make_world()
        serving = make_replica(template, genesis, MEMBERS[0])
        snapshot = serving.inner.object_state("x")
        good = {
            "x": {
                "snapshot": snapshot.snapshot_wire(),
                "fingerprint": snapshot.state_fingerprint(),
            }
        }
        tampered = {
            "x": {
                "snapshot": snapshot.snapshot_wire(),
                "fingerprint": b"\x00" * 32,
            }
        }
        joiner = make_replica(
            template, genesis, "replica:gX", bootstrap_from=genesis
        )
        sends = joiner.begin_bootstrap()
        assert sorted(s.dest for s in sends) == sorted(MEMBERS)
        nonce = sends[0].message.nonce
        # Quorum of replies: one tampered (rejected), two good (adopted).
        for peer, objects in (
            (MEMBERS[0], tampered),
            (MEMBERS[1], good),
            (MEMBERS[2], good),
        ):
            joiner.handle(
                peer,
                StateTransferReply(
                    shard=SHARD, nonce=nonce, epoch=0, objects=objects
                ),
            )
        assert joiner.ready
        assert joiner.bootstrap_rejects >= 1
        assert (
            joiner.inner.object_state("x").state_fingerprint()
            == snapshot.state_fingerprint()
        )

    def test_bootstrap_ignores_wrong_nonce_and_strangers(self):
        template, genesis = make_world()
        serving = make_replica(template, genesis, MEMBERS[0])
        state = serving.inner.object_state("x")
        objects = {
            "x": {
                "snapshot": state.snapshot_wire(),
                "fingerprint": state.state_fingerprint(),
            }
        }
        joiner = make_replica(
            template, genesis, "replica:gX", bootstrap_from=genesis
        )
        nonce = joiner.begin_bootstrap()[0].message.nonce
        joiner.handle(
            MEMBERS[0],
            StateTransferReply(
                shard=SHARD, nonce=b"z" * 16, epoch=0, objects=objects
            ),
        )
        joiner.handle(
            "replica:gY",  # not an old member
            StateTransferReply(
                shard=SHARD, nonce=nonce, epoch=0, objects=objects
            ),
        )
        assert not joiner.ready

    def test_non_joiner_cannot_bootstrap(self):
        template, genesis = make_world()
        replica = make_replica(template, genesis, MEMBERS[0])
        with pytest.raises(ProtocolError):
            replica.begin_bootstrap()


class TestReconfigurator:
    def _world(self):
        template, genesis = make_world()
        replicas = {
            m: make_replica(template, genesis, m) for m in MEMBERS
        }
        joiner = make_replica(
            template, genesis, "replica:gX", bootstrap_from=genesis
        )
        joiner.ready = True  # unit test: skip the transfer
        replicas["replica:gX"] = joiner
        return template, genesis, replicas

    def test_happy_path_replace(self):
        template, genesis, replicas = self._world()
        directory = ShardDirectory({SHARD: genesis}, template.scheme)
        rec = Reconfigurator("admin:1", SHARD, directory, template)
        sends = rec.begin_replace(MEMBERS[3], "replica:gX")
        # Sign requests go to every old member except the one leaving.
        assert sorted(s.dest for s in sends) == sorted(MEMBERS[:3])
        # Manual pump: deliver sign requests, feed replies, then installs.
        pending = sends
        while pending and not rec.done:
            batch, pending = pending, []
            for send in batch:
                replica = replicas.get(send.dest)
                if replica is None:
                    continue
                reply = replica.handle("admin:1", send.message)
                if reply is not None:
                    pending.extend(rec.deliver(send.dest, reply))
        assert rec.done
        assert directory.epoch(SHARD) == 1
        assert rec.entry is not None
        assert rec.entry.config.members == (
            MEMBERS[0],
            MEMBERS[1],
            MEMBERS[2],
            "replica:gX",
        )
        # Old members adopted too (they were install targets).
        assert replicas[MEMBERS[0]].epoch == 1
        assert replicas[MEMBERS[3]].retired

    def test_begin_replace_validates_membership(self):
        template, genesis, replicas = self._world()
        directory = ShardDirectory({SHARD: genesis}, template.scheme)
        rec = Reconfigurator("admin:1", SHARD, directory, template)
        with pytest.raises(ProtocolError):
            rec.begin_replace("replica:gY", "replica:gX")  # not a member
        with pytest.raises(ProtocolError):
            rec.begin_replace(MEMBERS[3], MEMBERS[0])  # already a member

    def test_racing_reconfigurators_cannot_both_win(self):
        """Each correct member signs one successor per epoch, so two racing
        proposals with different member sets cannot both reach a quorum."""
        template, genesis, replicas = self._world()
        template.registry.register("replica:gY")
        d1 = ShardDirectory({SHARD: genesis}, template.scheme)
        d2 = ShardDirectory({SHARD: genesis}, template.scheme)
        rec1 = Reconfigurator("admin:1", SHARD, d1, template)
        rec2 = Reconfigurator("admin:2", SHARD, d2, template)
        sends1 = rec1.begin_replace(MEMBERS[3], "replica:gX")
        sends2 = rec2.begin_replace(MEMBERS[3], "replica:gY")
        # rec1's requests all land first: it gathers the full quorum.
        for send in sends1:
            reply = replicas[send.dest].handle("admin:1", send.message)
            if reply is not None:
                rec1.deliver(send.dest, reply)
        assert rec1.phase == "installing"
        # rec2 now finds every signer already committed to rec1's proposal.
        for send in sends2:
            reply = replicas[send.dest].handle("admin:2", send.message)
            assert reply is None
        assert rec2.phase == "signing"
        assert not rec2.done
        assert sum(r.sign_conflicts for r in replicas.values()) == 3

    def test_bad_sign_replies_ignored(self):
        template, genesis, replicas = self._world()
        directory = ShardDirectory({SHARD: genesis}, template.scheme)
        rec = Reconfigurator("admin:1", SHARD, directory, template)
        rec.begin_replace(MEMBERS[3], "replica:gX")
        good = replicas[MEMBERS[0]].handle(
            "admin:1",
            ConfigSignRequest(config=rec._proposal.to_wire()),
        )
        # Wrong epoch, stranger sender, garbage signature: all dropped.
        rec.deliver(MEMBERS[0], ConfigSignReply(
            shard=SHARD, epoch=9, signature=good.signature
        ))
        rec.deliver("replica:gY", good)
        rec.deliver(MEMBERS[0], ConfigSignReply(
            shard=SHARD, epoch=1, signature={"greetings": 1}
        ))
        assert rec.round.replies == {}
        # The genuine reply from the genuine sender counts once.
        rec.deliver(MEMBERS[0], good)
        rec.deliver(MEMBERS[0], good)
        assert set(rec.round.replies) == {MEMBERS[0]}
