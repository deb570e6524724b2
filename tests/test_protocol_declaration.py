"""Every operation class runs exactly as its variant's declared protocol says.

Each variant's phases, what they carry, the signatures and MACs each side
computes and the WAL records a replica appends are declared once, by its
:class:`~repro.core.config.Protocol`; the cost model, the chaos bounds and
the CLI read that declaration.  This test makes the declaration the
protocol rather than a third copy: it runs every variant at f=1 and f=2 on
a reliable simulator and checks the measured counts — phase kinds, scheme
signs, MACs computed, messages sent, WAL appends per handled request kind
and the messages that log — against the :class:`CostModel` derived from it.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from repro import Instrumentation, LinkProfile, Variant, build_cluster
from repro.analysis import WRITE_PHASES, CostModel
from repro.byzantine import make_attack
from repro.core import QuorumSystem
from repro.sim import FaultSchedule, read_script, write_script
from repro.spec.invariants import check_lemma1

OPS = 3


class Probe:
    """WAL appends and logging messages per handled request kind, counted
    around every replica's ``handle``."""

    def __init__(self, cluster) -> None:
        self.handled: Counter = Counter()
        self.appends: Counter = Counter()
        self.logging: Counter = Counter()
        for replica in cluster.replicas.values():
            replica.handle = self._wrap(replica.handle, replica.store.stats)

    def _wrap(self, handle, stats):
        def counted(sender, message):
            before = stats.appends
            reply = handle(sender, message)
            grew = stats.appends - before
            self.handled[message.KIND] += 1
            self.appends[message.KIND] += grew
            self.logging[message.KIND] += grew > 0
            return reply

        return counted

    def reset(self) -> None:
        self.handled.clear()
        self.appends.clear()
        self.logging.clear()


class Run:
    """One reliable-network cluster with one client, instrumented."""

    def __init__(self, variant: Variant, f: int) -> None:
        self.instr = Instrumentation()
        self.cluster = build_cluster(
            f=f, variant=variant, seed=7 + f, instrumentation=self.instr
        )
        self.node = self.cluster.add_client("w")
        self.probe = Probe(self.cluster)

    def counters(self) -> tuple[int, int, int]:
        config = self.cluster.config
        return (
            config.scheme.stats.signs,
            config.authenticator.macs_computed,
            self.cluster.network.stats.messages_sent,
        )

    def measure(self, script) -> tuple[int, int, int]:
        """Run ``script`` to quiescence; the counter deltas it caused."""
        before = self.counters()
        self.probe.reset()
        self.node.run_script(script)
        self.cluster.run(max_time=120)
        self.cluster.settle()
        return tuple(b - a for a, b in zip(before, self.counters()))

    def phase_kinds(self, op_name: str) -> list[list[str]]:
        """Per operation named ``op_name``, its phase spans' kinds in order."""
        phases = defaultdict(list)
        for span in self.instr.spans():
            if span.kind == "phase":
                phases[span.parent_id].append(span)
        return [
            [span.name for span in sorted(phases[op.span_id], key=by_id)]
            for op in self.instr.spans()
            if op.kind == "op" and op.name == op_name
        ]


def by_id(span) -> int:
    return span.span_id


def assert_logged_as_declared(probe: Probe, phases, n: int, ops: int) -> None:
    """Each handled request kind appended its declared WAL records."""
    declared = {phase.request.KIND: phase.wal_records for phase in phases}
    assert set(probe.handled) == set(declared)
    for kind, handled in probe.handled.items():
        assert handled == ops * n, kind
        assert probe.appends[kind] == handled * declared[kind], kind
        assert probe.logging[kind] == (handled if declared[kind] else 0), kind


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("variant", list(Variant))
def test_steady_state_operations_match_the_declaration(variant, f):
    run = Run(variant, f)
    protocol = variant.protocol
    model = CostModel(run.cluster.config.quorums)
    n = run.cluster.config.n

    # Steady state: the client already holds a write certificate.
    run.measure(write_script("client:w", 1))
    signs, macs, messages = run.measure(write_script("client:w", OPS))
    kinds = [phase.request.KIND for phase in protocol.write]
    assert run.phase_kinds("write")[1:] == [kinds] * OPS
    assert signs == OPS * model.write_signature_ops(variant)
    assert macs == OPS * sum(phase.macs(n) for phase in protocol.write)
    assert messages == OPS * model.write_messages(variant)
    assert_logged_as_declared(run.probe, protocol.write, n, OPS)
    records = model.write_log_records(variant)
    assert sum(run.probe.appends.values()) == OPS * n * records
    assert sum(run.probe.logging.values()) == OPS * n * model.fsyncs_per_write()

    # Reads of a settled value take the first read phase only.  The warm
    # read absorbs the fast path's lazy, cached vouch signatures.
    run.measure(read_script(1))
    signs, macs, messages = run.measure(read_script(OPS))
    first = protocol.read[:1]
    assert run.phase_kinds("read")[1:] == [[first[0].request.KIND]] * OPS
    assert signs == OPS * sum(phase.signs(n) for phase in first)
    assert macs == 0 == sum(phase.macs(n) for phase in first)
    assert messages == OPS * model.read_messages()
    assert_logged_as_declared(run.probe, first, n, OPS)


@pytest.mark.parametrize("f", [1, 2])
def test_closed_forms_the_paper_states(f):
    """§3.3.2's ``2 + 3n``, §7's vouch on top (``2 + 4n``: 18 and 30), and
    the fast path's zero signatures and ``2n(n + 2)`` MACs."""
    model = CostModel(QuorumSystem.bft_bc(f))
    n = model.quorums.n
    assert model.write_signature_ops("base") == 2 + 3 * n
    assert model.write_signature_ops("optimized") == 2 + 3 * n
    assert model.write_signature_ops("strong") == 2 + 4 * n == {1: 18, 2: 30}[f]
    assert model.write_signature_ops("fastpath") == 0
    assert model.fast_write_macs_computed() == 2 * n * (n + 2)


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("variant", list(Variant))
def test_contending_writes_stay_within_the_declared_worst_case(variant, f):
    """Three writers on a jittery (loss-free) network.  No write uses more
    phases than the declared worst case, and the seed makes every variant
    but fastpath reach it at both f (strong's fetches the value and writes
    it back).  Contention alone takes fastpath to its signed fallback after
    a failed FAST-PREP, four phases; its five-phase worst case needs a
    FAST-WRITE that stalls, the test below."""
    cluster = build_cluster(
        f=f, variant=variant, seed=8, profile=LinkProfile(max_delay=0.02)
    )
    cluster.run_scripts(
        {f"w{i}": write_script(f"client:w{i}", 6) for i in range(3)},
        max_time=300,
    )
    protocol = variant.protocol
    assert WRITE_PHASES[variant.value] == (
        len(protocol.write),
        len(protocol.worst_write),
    )
    histogram = cluster.metrics.phase_histogram("write")
    assert sum(histogram.values()) == 18
    assert min(histogram) == len(protocol.write)
    assert max(histogram) <= len(protocol.worst_write), histogram
    if variant is not Variant.FASTPATH:
        assert max(histogram) == len(protocol.worst_write), histogram


@pytest.mark.parametrize("f", [1, 2])
def test_a_stalled_fast_write_reaches_the_declared_worst_case(f):
    """FAST-WRITE blocked at f+1 replicas (the catalogue's ``block_kinds``)
    stalls below its 2f+1 quorum after FAST-PREP succeeded, so every write
    demotes after both fast rounds and runs the signed protocol: exactly
    the declared worst case, five phases."""
    cluster = build_cluster(f=f, variant="fastpath", seed=3)
    schedule = FaultSchedule()
    for replica_id in cluster.config.quorums.replica_ids[: f + 1]:
        schedule.block_kinds(0.0, replica_id, ["FAST-WRITE"])
    cluster.install_faults(schedule)
    cluster.run_scripts({"w": write_script("client:w", OPS)}, max_time=120)
    worst = Variant.FASTPATH.protocol.worst_write
    assert cluster.metrics.phase_histogram("write") == {len(worst): OPS}
    assert all(s.fell_back for s in cluster.metrics.by_kind("write"))
    assert WRITE_PHASES["fastpath"] == (2, len(worst)) == (2, 5)


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("variant", list(Variant))
def test_a_lurking_client_reaches_exactly_the_declared_bounds(variant, f):
    """Each hoarded prepare certificate is one certifiable prepare the bad
    client holds: the lurking attack reaches Definition 1's ``max_b`` and
    Lemma 1's ``max_prepared`` exactly, and the correct replicas' signing
    logs stay within Lemma 1(2) at the declared bound."""
    cluster = build_cluster(f=f, variant=variant, seed=40 + f)
    attack = cluster.add_adversary(
        make_attack("lurking", "client:evil", cluster.config, variant.value)
    )
    cluster.run(max_time=120)
    protocol = variant.protocol
    assert len(attack.hoard) == protocol.max_b == protocol.max_prepared
    report = check_lemma1(
        cluster.replicas.values(),
        f=f,
        max_prepared_per_client=protocol.max_prepared,
        suspects=["client:evil"],
    )
    assert report.certifiable_prepares["client:evil"]
    assert not [v for v in report.violations if v.startswith("Lemma 1(2)")]
