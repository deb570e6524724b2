"""E4 — Authentication costs (§3.3.2).

Paper claims: only the phase-2 and phase-3 replies need public-key
signatures (they are shown to third parties as certificate entries); other
messages could use MACs.  Moreover the phase-3 (WRITE-REPLY) signature can
be produced in the background at prepare time, leaving only ONE foreground
public-key signature on a write's critical path.

We count signing operations per write under both policies, and measure the
RSA backend's verify-heavy profile for comparison.  E4d measures the
verification pipeline under a retransmission-heavy network: backend
verifications per operation and the certificate memo's hit rate.
"""

from __future__ import annotations

from repro import build_cluster
from repro.analysis import format_table
from repro.net.simnet import LinkProfile
from repro.sim import write_script

from benchmarks.conftest import run_once

OPS = 10


def _run(background: bool, seed: int = 400):
    cluster = build_cluster(f=1, seed=seed, background_signing=background)
    node = cluster.add_client("w")
    node.run_script(write_script("client:w", OPS))
    cluster.run(max_time=120)
    cluster.settle(0.1)
    foreground = sum(r.stats.foreground_signs for r in cluster.replicas.values())
    background_count = sum(
        r.stats.background_signs for r in cluster.replicas.values()
    )
    return foreground / (OPS * 4), background_count / (OPS * 4)


def test_e4_background_signing(benchmark):
    def experiment():
        fg_off, bg_off = _run(background=False)
        fg_on, bg_on = _run(background=True)
        rows = [
            ["foreground only (default)", fg_off, bg_off],
            ["background phase-3 signing", fg_on, bg_on],
        ]
        print()
        print(
            format_table(
                ["policy", "foreground signs/replica/write",
                 "background signs/replica/write"],
                rows,
                title="E4: replica signatures per write (paper: phase-3 sign can "
                "move off the critical path)",
            )
        )
        return fg_off, fg_on, bg_on

    fg_off, fg_on, bg_on = run_once(benchmark, experiment)
    # Default: phase-1 reply, phase-2 reply, phase-3 reply => 3 foreground.
    assert abs(fg_off - 3.0) < 0.2, fg_off
    # Background signing moves the WRITE-REPLY signature off the write path.
    assert abs(fg_on - 2.0) < 0.2, fg_on
    assert bg_on >= 0.9
    # Exactly the §3.3.2 accounting: of the remaining two foreground
    # signatures, only the PREPARE-REPLY one *needs* public-key crypto (the
    # phase-1 envelope could be a MAC).


def test_e4_rsa_vs_hmac_backend(benchmark):
    """The signature backends are interchangeable; RSA exercises genuine
    public-key verification and is orders of magnitude slower — which is
    why §3.3.2's accounting of *which* messages need signatures matters."""

    def experiment():
        import time

        results = {}
        for scheme in ("hmac", "rsa"):
            start = time.perf_counter()
            cluster = build_cluster(f=1, seed=401, scheme=scheme)
            node = cluster.add_client("w")
            node.run_script(write_script("client:w", 5))
            cluster.run(max_time=300)
            elapsed = time.perf_counter() - start
            stats = cluster.config.scheme.stats
            results[scheme] = (elapsed, stats.signs, stats.verifies)
        rows = [
            [scheme, f"{elapsed:.3f}s", signs, verifies]
            for scheme, (elapsed, signs, verifies) in results.items()
        ]
        print()
        print(
            format_table(
                ["backend", "wall time (5 writes)", "signs", "verifies"],
                rows,
                title="E4b: signature backend comparison",
            )
        )
        return results

    results = run_once(benchmark, experiment)
    # Both backends perform identical numbers of operations.
    assert results["hmac"][1] == results["rsa"][1]
    assert results["hmac"][2] == results["rsa"][2]


def test_e4c_background_signing_latency(benchmark):
    """§3.3.2's point, rendered as latency: with signing cost modelled in
    virtual time, moving the phase-3 signature into the background shortens
    the write path by one signature delay per phase-3 RPC."""

    SIGN_DELAY = 0.010  # one public-key signature = 10 virtual ms

    def p50(background: bool) -> float:
        cluster = build_cluster(
            f=1, seed=402, background_signing=background, sign_delay=SIGN_DELAY
        )
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", OPS))
        cluster.run(max_time=300)
        return cluster.metrics.latency_summary("write").p50 * 1000

    def experiment():
        fg = p50(background=False)
        bg = p50(background=True)
        print()
        print(
            format_table(
                ["policy", "write latency p50 (ms, sign=10ms)"],
                [
                    ["foreground phase-3 signing", fg],
                    ["background phase-3 signing", bg],
                ],
                title="E4c: §3.3.2 background signing as a latency effect",
            )
        )
        return fg, bg

    fg, bg = run_once(benchmark, experiment)
    # One 10ms signature leaves the critical path.
    assert 5 <= fg - bg <= 15, (fg, bg)


def test_e4d_verification_memo(benchmark):
    """The verification pipeline under a retransmission-heavy network:
    every signature check reaches the backend, and the certificate memo
    answers the certificates that retransmissions re-present."""

    #: Drops and duplicates force plenty of retransmission traffic.
    PROFILE = LinkProfile(drop_rate=0.15, duplicate_rate=0.2, max_delay=0.02)

    def experiment():
        cluster = build_cluster(f=1, seed=403, profile=PROFILE)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", OPS))
        cluster.run(max_time=300)
        cluster.settle(0.1)
        stats = cluster.config.verifier.stats
        cached = {
            "backend_per_op": cluster.config.scheme.stats.verifies / OPS,
            "cert_hit_rate": stats.certificate_hit_rate,
            "metrics_per_op": cluster.metrics.verified_signatures_per_op(),
        }
        print()
        print(
            format_table(
                ["pipeline", "backend verifies/write", "cert-memo hit rate"],
                [
                    [
                        "verifier",
                        f"{cached['backend_per_op']:.1f}",
                        f"{cached['cert_hit_rate']:.0%}",
                    ]
                ],
                title="E4d: verification under 15% drop / 20% dup (10 writes)",
            )
        )
        return cached

    cached = run_once(benchmark, experiment)
    # The metrics surface reports the backend's count.
    assert cached["metrics_per_op"] == cached["backend_per_op"]
