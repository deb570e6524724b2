"""Integration tests for the §3.2 Byzantine-client attacks against BFT-BC.

Each test checks that the attack achieves exactly what the paper proves is
achievable — no more.
"""

from __future__ import annotations

import pytest

from repro import build_cluster, count_lurking_writes
from repro.byzantine import (
    Colluder,
    EquivocationAttack,
    LurkingWriteAttack,
    PartialWriteAttack,
    TimestampExhaustionAttack,
)
from repro.byzantine.clients import sign_after_revocation_fails
from repro.sim import read_script, write_script
from repro.spec import check_bft_linearizable


class TestLurkingWritesBase:
    def test_hoard_bounded_to_one(self):
        """Lemma 1(2): at most one prepared-but-unwritten write."""
        cluster = build_cluster(f=1, seed=20)
        attack = cluster.add_adversary(
            LurkingWriteAttack(
                "client:evil", cluster.config, warmup=2, extra_attempts=3
            )
        )
        cluster.run(max_time=60)
        assert len(attack.hoard) == 1
        assert attack.failed_attempts == 3

    def test_colluder_makes_hoard_visible(self):
        cluster = build_cluster(f=1, seed=21)
        attack = cluster.add_adversary(
            LurkingWriteAttack(
                "client:evil", cluster.config, warmup=1, extra_attempts=0
            )
        )
        cluster.run(max_time=60)
        cluster.stop_client(attack.node_id)
        assert sign_after_revocation_fails(attack)
        cluster.add_adversary(
            Colluder("client:colluder", cluster.config, attack.hoard)
        )
        reader = cluster.add_client("reader")
        reader.run_script(read_script(1), start_delay=0.5)
        cluster.run(max_time=60)
        assert reader.client.last_result == attack.hoard[0].value

    def test_lurking_writes_within_definition_bound(self):
        cluster = build_cluster(f=1, seed=22)
        attack = cluster.add_adversary(
            LurkingWriteAttack(
                "client:evil", cluster.config, warmup=1, extra_attempts=2
            )
        )
        cluster.run(max_time=60)
        cluster.stop_client(attack.node_id)
        cluster.add_adversary(
            Colluder("client:colluder", cluster.config, attack.hoard)
        )
        reader = cluster.add_client("reader")
        reader.run_script(read_script(3), start_delay=0.5, think_time=0.1)
        cluster.run(max_time=60)
        lurking = count_lurking_writes(cluster.history, "client:evil")
        assert lurking <= 1  # Theorem 1's bound
        result = check_bft_linearizable(
            cluster.history, max_b=1, bad_clients={"client:evil"}
        )
        assert result.ok, result.violation

    def test_hoard_bounded_even_with_promiscuous_replica(self):
        """One colluding replica signs anything, but 2f+1 distinct signers
        are needed: the hoard stays at one."""
        from repro.byzantine import PromiscuousReplica

        cluster = build_cluster(
            f=1, seed=23, replica_overrides={0: PromiscuousReplica}
        )
        attack = cluster.add_adversary(
            LurkingWriteAttack(
                "client:evil", cluster.config, warmup=1, extra_attempts=2
            )
        )
        cluster.run(max_time=60)
        assert len(attack.hoard) == 1


class TestLurkingWritesOptimized:
    def test_double_hoard_achievable(self):
        """§6.3: the optimized protocol admits exactly two lurking writes."""
        cluster = build_cluster(f=1, variant="optimized", seed=24)
        attack = cluster.add_adversary(
            LurkingWriteAttack("client:evil", cluster.config, "optimized")
        )
        cluster.run(max_time=60)
        assert len(attack.hoard) == 2
        # Both certificates carry the same timestamp, different values.
        assert attack.hoard[0].ts == attack.hoard[1].ts
        assert attack.hoard[0].value != attack.hoard[1].value

    def test_double_hoard_within_optimized_bound(self):
        cluster = build_cluster(f=1, variant="optimized", seed=25)
        attack = cluster.add_adversary(
            LurkingWriteAttack("client:evil", cluster.config, "optimized")
        )
        cluster.run(max_time=60)
        cluster.stop_client(attack.node_id)
        cluster.add_adversary(
            Colluder("client:colluder", cluster.config, attack.hoard)
        )
        reader = cluster.add_client("reader")
        reader.run_script(read_script(2), start_delay=0.6, think_time=0.1)
        cluster.run(max_time=60)
        lurking = count_lurking_writes(cluster.history, "client:evil")
        assert lurking <= 2  # Theorem 2's bound
        result = check_bft_linearizable(
            cluster.history, max_b=2, bad_clients={"client:evil"}
        )
        assert result.ok, result.violation

    def test_reader_resolves_same_ts_by_hash(self):
        """When both hoarded writes land, readers converge on the larger
        hash (§6.3) — and stay atomic."""
        cluster = build_cluster(f=1, variant="optimized", seed=26)
        attack = cluster.add_adversary(
            LurkingWriteAttack("client:evil", cluster.config, "optimized")
        )
        cluster.run(max_time=60)
        cluster.stop_client(attack.node_id)
        cluster.add_adversary(
            Colluder("client:colluder", cluster.config, attack.hoard)
        )
        r1 = cluster.add_client("r1")
        r2 = cluster.add_client("r2")
        r1.run_script(read_script(2), start_delay=0.6, think_time=0.2)
        r2.run_script(read_script(2), start_delay=0.7, think_time=0.2)
        cluster.run(max_time=60)
        result = check_bft_linearizable(
            cluster.history, max_b=2, bad_clients={"client:evil"}
        )
        assert result.ok, result.violation


class TestEquivocation:
    def test_at_most_one_certificate_per_timestamp(self):
        """Lemma 1(3): no two prepare certificates for the same timestamp
        with different values."""
        cluster = build_cluster(f=1, seed=27)
        attack = cluster.add_adversary(
            EquivocationAttack("client:evil", cluster.config)
        )
        cluster.run(max_time=60)
        assert attack.quorums_reached <= 1

    def test_split_halves_cannot_both_reach_quorum(self):
        cluster = build_cluster(f=2, seed=28)  # 7 replicas, quorum 5
        attack = cluster.add_adversary(
            EquivocationAttack("client:evil", cluster.config)
        )
        cluster.run(max_time=60)
        total = len(attack.signatures["A"]) + len(attack.signatures["B"])
        # Each correct replica signs at most one of the two values.
        assert len(attack.signatures["A"]) < cluster.config.quorum_size or len(
            attack.signatures["B"]
        ) < cluster.config.quorum_size
        assert total <= cluster.config.n

    def test_good_clients_unaffected_during_attack(self):
        cluster = build_cluster(f=1, seed=29)
        attack = cluster.add_adversary(
            EquivocationAttack("client:evil", cluster.config)
        )
        writer = cluster.add_client("good")
        writer.run_script(write_script("client:good", 3) + read_script(1))
        cluster.run(max_time=60)
        assert writer.client.last_result == ("client:good", 2, None)


class TestPartialWrite:
    def test_partial_write_repaired_by_reader(self):
        cluster = build_cluster(f=1, seed=30)
        attack = cluster.add_adversary(
            PartialWriteAttack("client:evil", cluster.config)
        )
        cluster.run(max_time=60)
        installed = [r for r in cluster.replicas.values() if r.data is not None]
        assert len(installed) == 1
        # Force the holder into the read quorum.
        others = [
            rid for rid in cluster.config.quorums.replica_ids
            if rid != attack.installed_at
        ]
        cluster.network.crash(others[-1])
        reader = cluster.add_client("reader")
        reader.run_script(read_script(1))
        cluster.run(max_time=60)
        assert reader.client.last_result == attack.value
        cluster.settle()
        fresh = [r for r in cluster.replicas.values() if r.data == attack.value]
        assert len(fresh) >= cluster.config.quorum_size  # write-back repaired

    def test_partial_write_history_is_bft_linearizable(self):
        cluster = build_cluster(f=1, seed=31)
        attack = cluster.add_adversary(
            PartialWriteAttack("client:evil", cluster.config)
        )
        cluster.run(max_time=60)
        reader = cluster.add_client("reader")
        reader.run_script(read_script(2), think_time=0.1)
        cluster.run(max_time=60)
        result = check_bft_linearizable(
            cluster.history, max_b=1, bad_clients={"client:evil"}
        )
        assert result.ok, result.violation


class TestTimestampExhaustion:
    def test_huge_timestamp_rejected_everywhere(self):
        cluster = build_cluster(f=1, seed=32)
        attack = cluster.add_adversary(
            TimestampExhaustionAttack("client:evil", cluster.config)
        )
        cluster.run(max_time=60)
        assert attack.replies == 0
        for replica in cluster.replicas.values():
            assert all(e.ts.val < attack.HUGE for e in replica.plist.values())
            assert replica.pcert.ts.val < attack.HUGE

    def test_timestamps_grow_only_with_real_writes(self):
        cluster = build_cluster(f=1, seed=33)
        attack = cluster.add_adversary(
            TimestampExhaustionAttack("client:evil", cluster.config)
        )
        writer = cluster.add_client("good")
        writer.run_script(write_script("client:good", 5))
        cluster.run(max_time=60)
        cluster.settle()
        max_ts = max(r.pcert.ts.val for r in cluster.replicas.values())
        assert max_ts == 5  # five writes -> value 5, nothing more


class TestCollusionChain:
    """§7.2's chained-prepare attack by a colluding client set."""

    def test_chain_succeeds_on_base_protocol(self):
        from repro.byzantine import CollusionChainAttack

        cluster = build_cluster(f=1, seed=34)
        attack = cluster.add_adversary(
            CollusionChainAttack(
                "client:leader",
                cluster.config,
                members=["client:m1", "client:m2", "client:m3"],
            )
        )
        cluster.run(max_time=60)
        assert len(attack.hoard) == 3
        # Timestamps are consecutive: val 1, 2, 3 by the three members.
        values = [c.ts.val for c in attack.hoard]
        assert values == [1, 2, 3]
        ids = [c.ts.client_id for c in attack.hoard]
        assert ids == ["client:m1", "client:m2", "client:m3"]

    def test_chain_capped_at_one_on_strong_protocol(self):
        from repro.byzantine import CollusionChainAttack

        cluster = build_cluster(f=1, variant="strong", seed=35)
        attack = cluster.add_adversary(
            CollusionChainAttack(
                "client:leader",
                cluster.config,
                members=["client:m1", "client:m2", "client:m3"],
            )
        )
        cluster.run(max_time=60)
        # The first link can justify against the current completed state;
        # the second has no write certificate for link 1's timestamp.
        assert len(attack.hoard) == 1
        assert attack.refused_links == 1

    def test_each_member_within_individual_bound(self):
        """Even the chain respects Definition 1 *per client*: one lurking
        write per member."""
        from repro.byzantine import CollusionChainAttack

        cluster = build_cluster(f=1, seed=36)
        members = ["m1", "m2"]
        attack = cluster.add_adversary(
            CollusionChainAttack(
                "client:leader",
                cluster.config,
                members=[f"client:{m}" for m in members],
            )
        )
        cluster.run(max_time=60)
        for member in attack.members:
            cluster.stop_client(member)
        cluster.add_adversary(
            Colluder("client:colluder", cluster.config, attack.hoard)
        )
        reader = cluster.add_client("reader")
        reader.run_script(read_script(3), start_delay=0.5, think_time=0.1)
        cluster.run(max_time=60)
        for member in members:
            assert count_lurking_writes(cluster.history, f"client:{member}") <= 1
        result = check_bft_linearizable(
            cluster.history,
            max_b=1,
            bad_clients={f"client:{m}" for m in members},
        )
        assert result.ok, result.violation

    def test_chain_blocked_without_transferable_prev(self):
        """Sanity: a chain link needs the previous link's *certificate* —
        with a garbage prev certificate replicas refuse."""
        from repro.core.certificates import PrepareCertificate
        from repro.core.timestamp import Timestamp
        from repro.crypto.signatures import Signature
        from tests.helpers import ProtocolKit, make_replicas
        from repro.core import make_system

        config = make_system(f=1, seed=b"chain-unit")
        kit = ProtocolKit(config, client="client:m2")
        replicas = make_replicas(config)
        fake_prev = PrepareCertificate(
            ts=Timestamp(1, "client:m1"),
            value_hash=b"\x01" * 32,
            signatures=tuple(
                Signature(signer=f"replica:{i}", value=b"\x00" * 32)
                for i in range(3)
            ),
        )
        request = kit.prepare_request(
            fake_prev, fake_prev.ts.succ("client:m2"), ("v", 1)
        )
        assert all(r.handle("client:m2", request) is None for r in replicas)


class TestAttacksLandUnderLoss:
    """Every round of an attack is a ``QuorumRound``, so READ-TS and the
    malicious PREPARE are retransmitted to the silent set like any other
    phase.  With 20% loss and one crashed replica there is no reply slack:
    an attack that broadcasts READ-TS once mostly never sends its PREPARE
    at all and then reports "blocked" vacuously."""

    SEEDS = range(40)

    def _lossy_cluster(self, seed):
        from repro import LinkProfile
        from repro.byzantine import CrashedReplica

        cluster = build_cluster(
            f=1,
            seed=seed,
            profile=LinkProfile(drop_rate=0.2),
            replica_overrides={3: CrashedReplica},
        )
        live = [cluster.replicas[f"replica:{i}"] for i in range(3)]
        return cluster, live

    def test_timestamp_exhaustion_reaches_every_live_replica(self):
        for seed in self.SEEDS:
            cluster, live = self._lossy_cluster(seed)
            attack = cluster.add_adversary(
                TimestampExhaustionAttack("client:evil", cluster.config)
            )
            cluster.run(max_time=60)
            for replica in live:
                assert replica.stats.discards["bad-ts"] >= 1, (seed, replica.node_id)
            assert attack.replies == 0, seed

    def test_equivocation_reaches_its_split(self):
        for seed in self.SEEDS:
            cluster, live = self._lossy_cluster(seed)
            attack = cluster.add_adversary(
                EquivocationAttack("client:evil", cluster.config)
            )
            cluster.run(max_time=60)
            for replica in live:
                signed = any(
                    replica.node_id in sigs for sigs in attack.signatures.values()
                )
                refused = replica.stats.discards["plist-conflict"] >= 1
                assert signed or refused, (seed, replica.node_id)
            assert attack.quorums_reached <= 1, seed
