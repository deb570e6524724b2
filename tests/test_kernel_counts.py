"""The codec and MAC kernels may get cheaper per call, never change a count.

The counts below were recorded with the recursive decoder, the
isinstance-chain encoder and ``hmac.new``: any rewrite of those kernels must
keep every counter identical, so a speed-up is attributable to cheaper
calls alone.  The MACs and HMAC signatures themselves are checked byte for
byte against ``hmac.new``, and one steady-state base write costs exactly
the backend verifications of the ``CostModel`` closed form.

Which counts a change may move: ``writes``, ``signs``, ``macs_computed``
and ``macs_checked`` are the protocol's own and never move; ``verifies``
moves only when what the verifier caches changes.  ``encode_calls`` and
``encode_bytes`` (and the ``intern_*`` counts of the pass-through perfbench
still reads) move only with a change to what is encoded or how it is
counted, and are then re-pinned to the new exact values.  They last
moved when certificates began to be encoded once and spliced into
statements and the process-wide intern memo was deleted: base 1102 calls /
221869 bytes / 2331 hits / 382 misses became 2925 / 506093 / 0 / 0, and
fastpath 1197 / 405321 / 1799 / 717 became 2956 / 841868 / 0 / 0 (every
statement is now encoded where it is built, where the memo answered
repeats; each certificate is encoded once and its bytes are counted again
in every statement or message that splices them).  They moved again when
the phase engine took over the signed vote: a round whose replies all sign
one statement encodes it once, when the round begins, so base fell to 2733
calls / 495869 bytes (PREPARE-REPLY and WRITE-REPLY statements each went
from 144 builds to 48); and a proof-evidence certificate began to splice its
proof's stashed bytes, so fastpath rose to 3004 / 876620 (each of the 48
decoded proofs is encoded once, the 192 replica certificates around them no
longer walk its MAC rows, and spliced bytes count again in every encode
that splices them).  Base ``verifies`` went 528 -> 1092 when the verifier's
signature memo was deleted: each replica now verifies each signed request
itself, where the replicas sharing one verifier used to be answered from
the first one's verdict.  Fastpath fell to 2764 calls / 690716 bytes in the
same change, because the replica's proof memo, whose key encoded each
proof-evidence certificate, went with it (no MAC check moved: it had saved
none).  Then ``encode_bytes`` began to count only what each encode
serialises itself, not the spliced pieces the encode that produced them
already counted: base 495869 -> 232753, fastpath 690716 -> 477188, with
every call and every encoded byte unchanged.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest

from repro import LinkProfile, build_cluster
from repro.analysis.costs import CostModel
from repro.core.client import BftBcClient
from repro.core.config import make_system
from repro.core.replica import BftBcReplica
from repro.crypto.signatures import HmacSignatureScheme
from repro.encoding import encode_stats, intern_stats, reset_interning
from repro.sim import write_script

CLIENTS = 4
WRITES_EACH = 12

#: Per variant: what one seeded 48-write run counts.
PINNED = {
    "fastpath": {
        "writes": 48,
        "encode_calls": 2764,
        "encode_bytes": 477188,
        "intern_hits": 0,
        "intern_misses": 0,
        "macs_computed": 2304,
        "macs_checked": 1776,
        "signs": 0,
        "verifies": 0,
    },
    "base": {
        "writes": 48,
        "encode_calls": 2733,
        "encode_bytes": 232753,
        "intern_hits": 0,
        "intern_misses": 0,
        "macs_computed": 0,
        "macs_checked": 0,
        "signs": 672,
        "verifies": 1092,
    },
}


def _run(variant: str):
    reset_interning()
    encode_stats().reset()
    cluster = build_cluster(
        f=1,
        variant=variant,
        seed=2026,
        profile=LinkProfile(min_delay=0.005, max_delay=0.005),
    )
    scripts = {
        f"w{i}": write_script(f"client:w{i}", WRITES_EACH) for i in range(CLIENTS)
    }
    cluster.run_scripts(scripts, max_time=600)
    return cluster


@pytest.mark.parametrize("variant", sorted(PINNED))
def test_counts_match_the_recursive_kernels(variant):
    cluster = _run(variant)
    config = cluster.config
    counted = {
        "writes": cluster.metrics.operations,
        "encode_calls": encode_stats().calls,
        "encode_bytes": encode_stats().bytes_out,
        "intern_hits": intern_stats().hits,
        "intern_misses": intern_stats().misses,
        "macs_computed": config.authenticator.macs_computed,
        "macs_checked": config.authenticator.macs_checked,
        "signs": config.scheme.stats.signs,
        "verifies": config.scheme.stats.verifies,
    }
    assert counted == PINNED[variant]


#: Per variant: (frames decoded, copies delivered) in the same seeded runs.
#: The 3f+1 copies of a broadcast share one decode, so every broadcast saves
#: three: decodes = delivered - 3 x broadcasts.
DECODED = {
    "base": (719, 1151),
    "fastpath": (479, 767),
    "optimized": (479, 767),
    "strong": (719, 1151),
}


@pytest.mark.parametrize("variant", sorted(DECODED))
def test_each_frame_in_flight_is_decoded_once(variant):
    stats = _run(variant).network.stats
    assert (stats.messages_decoded, stats.messages_delivered) == DECODED[variant]


def test_macs_and_hmac_signatures_match_hmac_new():
    cluster = build_cluster(f=1, variant="fastpath", seed=2026)
    config = cluster.config
    auth, registry = config.authenticator, config.registry
    scheme = HmacSignatureScheme(registry)
    nodes = sorted(config.quorums.replica_ids) + ["client:w0", "client:w1"]
    for node in nodes:
        registry.register(node)
    messages = [b"", b"m", bytes(range(256)) * 3]
    for sender in nodes:
        for receiver in nodes:
            key = auth.session_key(sender, receiver)
            for message in messages:
                expected = hmac.new(key, message, hashlib.sha256).digest()
                assert auth.mac(sender, receiver, message) == expected
                assert auth.check(sender, receiver, message, expected)
                assert not auth.check(sender, receiver, message + b"x", expected)
        for message in messages:
            expected = hmac.new(
                registry.secret_for(sender), message, hashlib.sha256
            ).digest()
            signature = scheme.sign(sender, message)
            assert signature.value == expected
            assert scheme.verify(signature, message)
            assert not scheme.verify(signature, message + b"x")


@pytest.mark.parametrize("f", [1, 2])
def test_steady_state_base_write_verifies_5q_plus_2n(f):
    """One base write pumped round by round through sans-I/O replicas that
    share one verifier.  The first write warms the certificates later
    writes carry; the second is the steady state the closed form counts."""
    config = make_system(f, seed=b"bv-differential")
    config.registry.register("c1")
    replicas = {
        node_id: BftBcReplica(node_id, config)
        for node_id in config.quorums.replica_ids
    }
    client = BftBcClient("c1", config)

    def pump(sends):
        while sends:
            replies = [
                (send.dest, reply)
                for send in sends
                if (reply := replicas[send.dest].handle("c1", send.message))
                is not None
            ]
            sends = [
                out for dest, reply in replies for out in client.deliver(dest, reply)
            ]

    pump(client.begin_write(b"v1"))
    before = config.verifier.stats.signature_checks
    pump(client.begin_write(b"v2"))
    assert not client.busy
    verifies = config.verifier.stats.signature_checks - before
    q, n = config.quorum_size, config.quorums.n
    assert verifies == CostModel(config.quorums).write_verify_calls() == 5 * q + 2 * n
