"""Direct-drive crash-recovery tests for every replica variant.

Each test runs real protocol traffic against replicas whose state is
journaled to a :class:`~repro.storage.FileLogStore`, destroys the replica
objects, rebuilds them from the surviving store, and asserts the recovered
Figure-2 state is byte-identical (via the canonical fingerprint) and still
serves the protocol.
"""

from __future__ import annotations

import pytest

from repro.core import make_system
from repro.core.messages import ReadTsPrepRequest
from repro.core.replica import BftBcReplica, OptimizedBftBcReplica
from repro.core.statements import read_ts_prep_request_statement
from repro.core.timestamp import ZERO_TS
from repro.crypto.hashing import hash_value
from repro.storage import FileLogStore

from tests.conftest import make_write_cert
from tests.helpers import ProtocolKit


def durable_replicas(config, tmp_path, cls=BftBcReplica, **store_kwargs):
    return [
        cls(rid, config, store=FileLogStore(tmp_path / rid, **store_kwargs))
        for rid in config.quorums.replica_ids
    ]


def recovered_copy(replica):
    """A fresh replica of the same class over the same store, recovered."""
    fresh = type(replica)(replica.node_id, replica.config, store=replica.store)
    fresh.recover()
    return fresh


class TestBaseRecovery:
    def test_recovery_reproduces_state_and_serves_reads(self, tmp_path):
        config = make_system(f=1, seed=b"recover-base")
        kit = ProtocolKit(config)
        replicas = durable_replicas(config, tmp_path)
        _, wcert1 = kit.full_write(replicas, ("v", 1))
        kit.full_write(replicas, ("v", 2), write_cert=wcert1)

        for replica in replicas:
            before = replica.state_fingerprint(include_signing_logs=True)
            fresh = recovered_copy(replica)
            assert (
                fresh.state_fingerprint(include_signing_logs=True) == before
            )
            assert kit.read_value(fresh) == ("v", 2)
            assert fresh.write_ts == replica.write_ts
            assert dict(fresh.plist.items()) == dict(replica.plist.items())

    def test_recovery_is_idempotent(self, tmp_path):
        config = make_system(f=1, seed=b"recover-idem")
        kit = ProtocolKit(config)
        replicas = durable_replicas(config, tmp_path)
        kit.full_write(replicas, ("v", 1))
        replica = replicas[0]
        fresh = recovered_copy(replica)
        once = fresh.state_fingerprint(include_signing_logs=True)
        fresh.recover()
        assert fresh.state_fingerprint(include_signing_logs=True) == once

    def test_recovery_after_simulated_power_cut(self, tmp_path):
        config = make_system(f=1, seed=b"recover-cut")
        kit = ProtocolKit(config)
        replicas = durable_replicas(config, tmp_path, fsync="always")
        kit.full_write(replicas, ("v", 1))
        replica = replicas[0]
        before = replica.state_fingerprint(include_signing_logs=True)
        replica.store.crash()  # fsync=always: nothing was volatile
        fresh = recovered_copy(replica)
        assert fresh.state_fingerprint(include_signing_logs=True) == before

    def test_recovery_spans_snapshot_compaction(self, tmp_path):
        config = make_system(f=1, seed=b"recover-snap")
        kit = ProtocolKit(config)
        replicas = durable_replicas(config, tmp_path, snapshot_interval=3)
        wcert = None
        for i in range(4):
            _, wcert = kit.full_write(replicas, ("v", i), write_cert=wcert)
        assert replicas[0].store.stats.snapshots > 0
        for replica in replicas:
            fresh = recovered_copy(replica)
            assert fresh.state_fingerprint(
                include_signing_logs=True
            ) == replica.state_fingerprint(include_signing_logs=True)
            assert kit.read_value(fresh) == ("v", 3)

    def test_recovered_replica_continues_protocol(self, tmp_path):
        config = make_system(f=1, seed=b"recover-continue")
        kit = ProtocolKit(config)
        replicas = durable_replicas(config, tmp_path)
        _, wcert = kit.full_write(replicas, ("v", 1))
        replicas = [recovered_copy(r) for r in replicas]
        kit.full_write(replicas, ("v", 2), write_cert=wcert)
        assert all(kit.read_value(r) == ("v", 2) for r in replicas)


class TestOptimizedRecovery:
    def opt_prepare(self, kit, replica, value, write_cert):
        """Drive the merged §6 phase-1/2 so the optlist gets an entry."""
        nonce = kit.nonce()
        vh = hash_value(value)
        statement = read_ts_prep_request_statement(
            vh, write_cert, nonce
        )
        message = ReadTsPrepRequest(
            value_hash=vh,
            write_cert=write_cert,
            nonce=nonce,
            signature=kit.config.scheme.sign(kit.client, statement),
        )
        reply = replica.handle(kit.client, message)
        assert reply is not None and reply.prepared_ts is not None

    def test_optlist_survives_recovery(self, tmp_path):
        config = make_system(f=1, seed=b"recover-opt")
        kit = ProtocolKit(config)
        replicas = durable_replicas(config, tmp_path, cls=OptimizedBftBcReplica)
        _, wcert = kit.full_write(replicas, ("v", 1))
        self.opt_prepare(kit, replicas[0], ("v", 2), wcert)
        assert len(replicas[0].optlist) == 1
        for replica in replicas:
            fresh = recovered_copy(replica)
            assert fresh.state_fingerprint(
                include_signing_logs=True
            ) == replica.state_fingerprint(include_signing_logs=True)
            assert dict(fresh.optlist.items()) == dict(replica.optlist.items())


class TestStrongRecovery:
    def test_recovery_reproduces_state(self, tmp_path):
        config = make_system(f=1, seed=b"recover-strong", strong=True)
        kit = ProtocolKit(config)
        replicas = durable_replicas(config, tmp_path)
        justify = make_write_cert(config, ZERO_TS)
        _, wcert = kit.full_write(replicas, ("v", 1), justify_cert=justify)
        kit.full_write(
            replicas, ("v", 2), write_cert=wcert, justify_cert=wcert
        )
        for replica in replicas:
            fresh = recovered_copy(replica)
            assert fresh.state_fingerprint(
                include_signing_logs=True
            ) == replica.state_fingerprint(include_signing_logs=True)
            assert kit.read_value(fresh) == ("v", 2)


def test_memory_store_crash_loses_state(tmp_path):
    """The volatile baseline: crash + recover forgets everything, which is
    exactly the contrast the durable engine exists to fix."""
    config = make_system(f=1, seed=b"recover-volatile")
    kit = ProtocolKit(config)
    replicas = [BftBcReplica(rid, config) for rid in config.quorums.replica_ids]
    kit.full_write(replicas, ("v", 1))
    replica = replicas[0]
    replica.store.crash()
    replica.recover()
    assert replica.write_ts == ZERO_TS
    assert len(replica.plist) == 0
