"""Attack by variant: every §3.2 behaviour against every system.

One parametrized matrix mounts each catalogue behaviour (equivocation,
partial write, timestamp exhaustion, lurking write + colluder, collusion
chain) on base, optimized, strong and fastpath, and on the BQS / Phalanx
baselines where the baseline has the phase the behaviour deviates in,
straight through ``make_attack`` + ``Cluster.add_adversary``.  A pair that
cannot be mounted carries the catalogue's one-line reason, asserted here
rather than skipped.  The rendered table is the one in EXPERIMENTS.md (E25);
``PYTHONPATH=src python -m tests.test_attack_matrix`` prints it.
"""

from __future__ import annotations

import functools
import pathlib

import pytest

from repro import build_bqs_cluster, build_cluster, build_phalanx_cluster
from repro.analysis import format_table
from repro.byzantine import ATTACKS, BASELINE_ATTACKS, Colluder, make_attack
from repro.chaos.plan import MAX_B
from repro.errors import SimulationError
from repro.sim import read_script, write_script
from repro.spec import check_bft_linearizable, count_lurking_writes

BEHAVIOURS = tuple(ATTACKS)
VARIANTS = tuple(MAX_B)
BASELINES = {"bqs": build_bqs_cluster, "phalanx": build_phalanx_cluster}
HUGE = 10**15
#: What each cell of the table shows of the finished machine.
ACHIEVED = {
    "EquivocationAttack": lambda a: f"{a.quorums_reached} certificates",
    "TimestampExhaustionAttack": lambda a: f"{a.replies} prepare replies",
    "PartialWriteAttack": lambda a: f"installed at {a.installed_at}",
    "LurkingWriteAttack": lambda a: f"hoard {len(a.hoard)}",
    "CollusionChainAttack": lambda a: f"hoard {len(a.hoard)} of {len(a.members)}",
    "BqsEquivocationAttack": lambda a: f"state split {len(a.acks_a)}/{len(a.acks_b)}",
    "BqsTimestampExhaustionAttack": lambda a: f"{len(a.acks)} write acks",
    "PhalanxEquivocationAttack": lambda a: f"{a.proofs_obtained} echo proofs",
    "PhalanxTimestampExhaustionAttack": lambda a: f"{len(a.write_acks)} write acks",
}
TITLE = "E25: attack by variant (seen = lurking writes per bad client <= MAX_B)"


@functools.lru_cache(maxsize=None)
def run_cell(behaviour: str, system: str):
    """Mount ``behaviour`` on ``system``, then the §3.2 second act: stop the
    bad clients, let a colluder replay any hoard, and have good clients
    write and read.  Returns ``(cluster, attack)``."""
    seed = 2500 + BEHAVIOURS.index(behaviour)
    if system in BASELINES:
        cluster = BASELINES[system](f=1, seed=seed)
    else:
        cluster = build_cluster(f=1, variant=system, seed=seed)
    attack = cluster.add_adversary(
        make_attack(behaviour, "client:evil", cluster.config, system)
    )
    cluster.run(max_time=120)
    if system in BASELINES:
        return cluster, attack
    for client in sorted(attack.identities):
        cluster.stop_client(client)
    hoard = getattr(attack, "hoard", [])
    if hoard:
        cluster.add_adversary(Colluder("client:colluder", cluster.config, hoard))
    reader = cluster.add_client("reader")
    reader.run_script(read_script(2), start_delay=0.5, think_time=0.1)
    cluster.run(max_time=120)
    good = cluster.add_client("good")
    good.run_script(write_script("client:good", 2) + read_script(1))
    cluster.run(max_time=120)
    return cluster, attack


def describe_cell(behaviour: str, system: str) -> str:
    if isinstance(BASELINE_ATTACKS.get(system, {}).get(behaviour), str):
        return "n/a"
    cluster, attack = run_cell(behaviour, system)
    cell = ACHIEVED[type(attack).__name__](attack)
    if hasattr(attack, "hoard") and system in MAX_B:
        seen = max(
            count_lurking_writes(cluster.history, c) for c in attack.identities
        )
        cell += f", seen {seen} <= {MAX_B[system]}"
    return cell


@pytest.mark.parametrize("system", VARIANTS)
@pytest.mark.parametrize("behaviour", BEHAVIOURS)
def test_bftbc_bounds_every_behaviour(behaviour, system):
    cluster, attack = run_cell(behaviour, system)
    assert attack.done
    bound = MAX_B[system]
    bad = attack.identities
    result = check_bft_linearizable(cluster.history, max_b=bound, bad_clients=bad)
    assert result.ok, result.violation
    for client in bad:
        assert count_lurking_writes(cluster.history, client) <= bound
    # Lemma 1(3): one prepare certificate per timestamp, or one per prepare
    # list where §6.3 relaxes it; never two for an equivocator.
    certs_at: dict = {}
    for captured in getattr(attack, "hoard", []):
        certs_at[captured.ts] = certs_at.get(captured.ts, 0) + 1
    assert all(count <= bound for count in certs_at.values()), certs_at
    assert getattr(attack, "quorums_reached", 0) <= 1
    # Timestamps grow only through completed writes (§3.2 issue 3).
    for replica in cluster.replicas.values():
        assert replica.pcert.ts.val < HUGE and replica.write_ts.val < HUGE
        assert all(e.ts.val < HUGE for e in replica.plist.values())


def test_lurking_hoard_is_exactly_the_bound():
    for system in VARIANTS:
        _cluster, attack = run_cell("lurking", system)
        assert len(attack.hoard) == MAX_B[system], system
        assert len({captured.ts for captured in attack.hoard}) == 1


def test_chain_is_capped_only_by_the_strong_variant():
    for system in VARIANTS:
        _cluster, attack = run_cell("chain", system)
        expected = 1 if system == "strong" else len(attack.members)
        assert len(attack.hoard) == expected, system


@pytest.mark.parametrize("system", tuple(BASELINES))
@pytest.mark.parametrize("behaviour", BEHAVIOURS)
def test_baseline_pairs_succeed_or_say_why(behaviour, system):
    entry = BASELINE_ATTACKS[system][behaviour]
    if isinstance(entry, str):
        config = BASELINES[system](f=1, seed=1).config
        with pytest.raises(SimulationError) as raised:
            make_attack(behaviour, "client:evil", config, system)
        assert entry in str(raised.value) and "\n" not in entry
        return
    cluster, attack = run_cell(behaviour, system)
    assert attack.done
    if behaviour == "ts-exhaustion":
        # The gap BFT-BC closes: the baseline accepts the huge timestamp.
        assert attack.succeeded
        assert any(r.ts.val >= HUGE for r in cluster.replicas.values())
    elif system == "bqs":
        values = {repr(r.data) for r in cluster.replicas.values() if r.data}
        assert len(values) == 2  # equivocation splits the register
    else:
        assert attack.proofs_obtained <= 1  # the echo log stops it


def render_matrix() -> str:
    systems = VARIANTS + tuple(BASELINES)
    rows = [
        [behaviour] + [describe_cell(behaviour, system) for system in systems]
        for behaviour in BEHAVIOURS
    ]
    table = format_table(["behaviour", *systems], rows, title=TITLE)
    hosts: dict[tuple[str, str], list[str]] = {}
    for system, entries in BASELINE_ATTACKS.items():
        for behaviour, entry in entries.items():
            if isinstance(entry, str):
                hosts.setdefault((behaviour, entry), []).append(system)
    reasons = [
        f"- {behaviour} on {' / '.join(systems)}: {entry}"
        for (behaviour, entry), systems in hosts.items()
    ]
    return table + "\n\nNot mountable, and why:\n\n" + "\n".join(reasons)


def test_matrix_is_the_table_in_experiments_md():
    rendered = render_matrix()
    print("\n" + rendered)  # visible with ``pytest -s``
    experiments = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    assert rendered in experiments.read_text(encoding="utf-8")


if __name__ == "__main__":  # regenerate the EXPERIMENTS.md block
    print(render_matrix())
