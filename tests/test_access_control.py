"""Access control and the two stop-notions of §4.1.1."""

from __future__ import annotations

import pytest

from repro import NamespaceWriters, build_cluster
from repro.core import make_system
from repro.errors import KeyRevokedError
from repro.sim import read_script


class TestAcl:
    def test_default_authorizes_every_registered_client(self, config):
        assert config.is_authorized_writer("client:alice")
        assert not config.is_authorized_writer("client:ghost")  # unregistered

    def test_explicit_acl_restricts(self, config):
        config.authorized_writers = NamespaceWriters(extra={"client:alice"})
        assert config.is_authorized_writer("client:alice")
        assert not config.is_authorized_writer("client:bob")

    def test_authorize_writer_creates_acl(self):
        cfg = make_system(f=1, seed=b"acl")
        cfg.registry.register("client:x")
        cfg.authorize_writer("client:x")
        assert cfg.authorized_writers.extra == {"client:x"}
        assert cfg.is_authorized_writer("client:x")
        # Registering alone no longer suffices once an ACL exists.
        cfg.registry.register("client:y")
        assert not cfg.is_authorized_writer("client:y")

    def test_revoke_writer_removes_key_and_acl_entry(self):
        cfg = make_system(f=1, seed=b"acl2")
        cfg.registry.register("client:x")
        cfg.authorize_writer("client:x")
        cfg.revoke_writer("client:x")
        assert cfg.registry.is_revoked("client:x")
        assert not cfg.authorized_writers.allows("client:x")
        with pytest.raises(KeyRevokedError):
            cfg.scheme.sign("client:x", b"m")


class TestStopNotions:
    def _hoard(self, cluster):
        from repro.byzantine import LurkingWriteAttack

        attack = cluster.add_adversary(
            LurkingWriteAttack(
                "client:evil", cluster.config, warmup=1, extra_attempts=0
            )
        )
        cluster.run(max_time=60)
        assert attack.hoard
        return attack

    def test_default_stop_allows_replays(self):
        """§4.1.1's base notion: after the stop, *replays* of previously
        signed messages still work (that is what makes lurking writes a
        threat worth bounding)."""
        from repro.byzantine import Colluder

        cluster = build_cluster(f=1, seed=60)
        attack = self._hoard(cluster)
        cluster.stop_client(attack.node_id)
        cluster.add_adversary(
            Colluder("client:colluder", cluster.config, attack.hoard)
        )
        reader = cluster.add_client("r")
        reader.run_script(read_script(1), start_delay=0.5)
        cluster.run(max_time=60)
        assert reader.client.last_result == attack.hoard[0].value

    def test_strict_stop_discards_replays(self):
        """The stronger notion ('an administrator removing the node's public
        key from the access control list ... where replays are also
        discarded'): the colluder's replay is rejected and the lurking write
        never becomes visible."""
        from repro.byzantine import Colluder

        cluster = build_cluster(f=1, seed=61, strict_stop=True)
        attack = self._hoard(cluster)
        cluster.stop_client(attack.node_id)
        cluster.add_adversary(
            Colluder("client:colluder", cluster.config, attack.hoard)
        )
        reader = cluster.add_client("r")
        reader.run_script(read_script(1), start_delay=0.5)
        cluster.run(max_time=60)
        # The hoarded value is nowhere: replicas discarded the replay.
        assert reader.client.last_result != attack.hoard[0].value
        for replica in cluster.replicas.values():
            assert replica.data != attack.hoard[0].value
            assert replica.stats.discards["revoked"] >= 1

    def test_strict_stop_does_not_affect_other_clients(self):
        cluster = build_cluster(f=1, seed=62, strict_stop=True)
        attack = self._hoard(cluster)
        cluster.stop_client(attack.node_id)
        good = cluster.add_client("good")
        good.run_script([("write", ("client:good", 1, None)), ("read", None)])
        cluster.run(max_time=60)
        assert good.client.last_result == ("client:good", 1, None)


class TestAccessPolicies:
    """The NamespaceWriters rule behind ``authorized_writers``."""

    def test_namespace_admits_prefix_in_constant_memory(self):
        policy = NamespaceWriters("load:")
        for i in (0, 1, 999_999):
            assert policy.allows(f"load:{i}")
        assert not policy.allows("client:alice")
        # No per-member state materialised for the million admitted ids.
        assert not policy.extra and not policy.denied

    def test_namespace_extra_and_denied(self):
        policy = NamespaceWriters(
            ("load:", "svc:"), extra=("client:admin",), denied=("load:13",)
        )
        assert policy.allows("svc:payments")
        assert policy.allows("client:admin")
        assert not policy.allows("load:13")  # exact denial wins the prefix
        policy.authorize("load:13")  # re-grant clears the denial
        assert policy.allows("load:13")
        assert "load:13" not in policy.extra  # prefix covers it again
        policy.retract("client:admin")
        assert not policy.allows("client:admin")

    def test_config_funnels_through_policy(self):
        cfg = make_system(f=1, seed=b"policy")
        cfg.authorized_writers = NamespaceWriters("load:")
        cfg.registry.open_namespace("load:")
        assert cfg.is_authorized_writer("load:42")
        assert not cfg.is_authorized_writer("client:ghost")
        cfg.authorize_writer("client:admin")  # lands in policy.extra
        cfg.registry.register("client:admin")
        assert cfg.is_authorized_writer("client:admin")
        cfg.revoke_writer("load:42")
        assert not cfg.is_authorized_writer("load:42")
        with pytest.raises(KeyRevokedError):
            cfg.scheme.sign("load:42", b"m")
