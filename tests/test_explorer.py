"""Systematic schedule exploration of small protocol instances.

Every enumerable delivery order of these scenarios must keep the protocol's
invariants: operations complete, replicas converge, readers never see
garbage.  This complements the random-jitter simulator with exhaustive
coverage of small cases.
"""

from __future__ import annotations

import pytest

from repro.byzantine import EquivocationAttack
from repro.core import BftBcClient, make_system
from repro.sim import ScheduleExplorer
from repro.spec import check_lemma1
from tests.helpers import make_replicas


def two_writers_factory():
    """Two clients concurrently write one value each; 4 replicas."""
    config = make_system(f=1, seed=b"explore-1")
    replicas = {r.node_id: r for r in make_replicas(config)}
    a = BftBcClient("client:a", config)
    b = BftBcClient("client:b", config)
    clients = {a.node_id: a, b.node_id: b}

    def kickoff():
        traffic = []
        for client, value in ((a, ("client:a", 1, None)), (b, ("client:b", 1, None))):
            for send in client.begin_write(value):
                traffic.append((client.node_id, send))
        return traffic

    return replicas, clients, kickoff


def writer_reader_factory():
    """One writer and one concurrent reader."""
    config = make_system(f=1, seed=b"explore-2")
    replicas = {r.node_id: r for r in make_replicas(config)}
    w = BftBcClient("client:w", config)
    r = BftBcClient("client:r", config)
    clients = {w.node_id: w, r.node_id: r}

    def kickoff():
        traffic = [(w.node_id, s) for s in w.begin_write(("client:w", 1, None))]
        traffic += [(r.node_id, s) for s in r.begin_read()]
        return traffic

    return replicas, clients, kickoff


def equivocator_writer_factory():
    """One EquivocationAttack machine beside one correct writer: the
    adversary goes in the ``clients`` dict like any sans-I/O client."""
    config = make_system(f=1, seed=b"explore-3")
    replicas = {r.node_id: r for r in make_replicas(config)}
    evil = EquivocationAttack("client:evil", config)
    w = BftBcClient("client:w", config)
    clients = {evil.node_id: evil, w.node_id: w}

    def kickoff():
        traffic = [(evil.node_id, s) for s in evil.start()]
        traffic += [(w.node_id, s) for s in w.begin_write(("client:w", 1, None))]
        return traffic

    return replicas, clients, kickoff


def check_equivocator_writer(replicas, clients):
    if clients["client:w"].busy:
        return "the correct writer did not complete"
    evil = clients["client:evil"]
    if sum(len(sigs) for sigs in evil.signatures.values()) != len(replicas):
        return "the equivocator's split did not reach every replica"
    if evil.quorums_reached > 1:
        return "two prepare certificates for one timestamp"
    report = check_lemma1(replicas.values(), f=1)
    if not report.ok:
        return f"Lemma 1 violated: {report.violations}"
    values = {repr(r.data) for r in replicas.values()}
    if values != {repr(("client:w", 1, None))}:
        return f"replicas did not converge: {values}"
    return None


def check_two_writers(replicas, clients):
    for node_id, client in clients.items():
        if client.busy:
            return f"{node_id} did not complete"
    values = {repr(r.data) for r in replicas.values()}
    if len(values) != 1:
        return f"replicas diverged: {values}"
    # The surviving value is the max-timestamp write: (1, client:b) beats
    # (1, client:a) by client-id order.
    winner = next(iter(replicas.values())).data
    if winner != ("client:b", 1, None):
        return f"unexpected winner {winner!r}"
    return None


def check_writer_reader(replicas, clients):
    writer = clients["client:w"]
    reader = clients["client:r"]
    if writer.busy or reader.busy:
        return "an operation did not complete"
    value = reader.op.result
    if value not in (None, ("client:w", 1, None)):
        return f"reader saw garbage: {value!r}"
    values = {repr(r.data) for r in replicas.values()}
    if values != {repr(("client:w", 1, None))}:
        return f"replicas did not converge: {values}"
    return None


class TestExhaustiveSmallModels:
    def test_two_concurrent_writers_all_schedules(self):
        explorer = ScheduleExplorer(
            two_writers_factory,
            check_two_writers,
            max_executions=1500,
            max_depth=200,
        )
        result = explorer.run()
        assert result.executions > 100, result.describe()
        assert result.truncated == 0, result.describe()
        assert result.ok, (result.describe(), result.failures[:3])

    def test_writer_with_concurrent_reader_all_schedules(self):
        explorer = ScheduleExplorer(
            writer_reader_factory,
            check_writer_reader,
            max_executions=1500,
            max_depth=200,
        )
        result = explorer.run()
        assert result.executions > 100, result.describe()
        assert result.ok, (result.describe(), result.failures[:3])

    def test_equivocator_beside_a_correct_writer(self):
        """Theorem 1's setting over enumerated schedules, explorer untouched:
        whatever the interleaving, the writer finishes, Lemma 1 holds and
        the replicas converge on the writer's value."""
        explorer = ScheduleExplorer(
            equivocator_writer_factory,
            check_equivocator_writer,
            max_executions=150,
            max_depth=200,
        )
        result = explorer.run()
        assert result.executions == 150, result.describe()
        assert result.truncated == 0, result.describe()
        assert result.ok, (result.describe(), result.failures[:3])

    def test_detects_injected_bug(self):
        """Sanity: the explorer actually finds violations.  A 'broken'
        check demanding the LOSING writer's value must fail somewhere."""

        def bad_check(replicas, clients):
            winner = next(iter(replicas.values())).data
            if winner != ("client:a", 1, None):
                return "winner is not client:a"
            return None

        explorer = ScheduleExplorer(
            two_writers_factory, bad_check, max_executions=200, max_depth=200
        )
        result = explorer.run()
        assert not result.ok

    def test_exploration_is_deterministic(self):
        runs = []
        for _ in range(2):
            explorer = ScheduleExplorer(
                two_writers_factory,
                check_two_writers,
                max_executions=300,
                max_depth=200,
            )
            result = explorer.run()
            runs.append((result.executions, result.truncated, len(result.failures)))
        assert runs[0] == runs[1]
