"""Microbenchmarks: the primitive operations underlying the protocol.

These use pytest-benchmark's statistical timing directly (many rounds), in
contrast to the experiment benches which run whole simulations once.
"""

from __future__ import annotations

import pytest

from repro.core import Timestamp, make_system
from repro.core.certificates import PrepareCertificate
from repro.core.statements import prepare_reply_statement
from repro.crypto.hashing import hash_value
from repro.encoding import canonical_decode, canonical_encode
from repro.sim import Scheduler, write_script


@pytest.fixture(scope="module")
def config():
    cfg = make_system(f=1, seed=b"micro")
    cfg.registry.register("client:a")
    return cfg


@pytest.fixture(scope="module")
def rsa_config():
    cfg = make_system(f=1, seed=b"micro-rsa", scheme="rsa")
    cfg.registry.register("client:a")
    return cfg


@pytest.fixture(scope="module")
def prepare_cert(config):
    ts = Timestamp(1, "client:a")
    vh = hash_value(("v", 1))
    statement = prepare_reply_statement(ts, vh)
    sigs = tuple(
        config.scheme.sign(f"replica:{i}", statement) for i in range(3)
    )
    return PrepareCertificate(ts=ts, value_hash=vh, signatures=sigs)


SAMPLE_MESSAGE = {
    "kind": "PREPARE",
    "ts": (42, "client:alice"),
    "hash": b"\x01" * 32,
    "nested": ((1, "a"), (2, "b"), {"x": b"y" * 64}),
}


def test_canonical_encode(benchmark):
    benchmark(canonical_encode, SAMPLE_MESSAGE)


def test_canonical_round_trip(benchmark):
    encoded = canonical_encode(SAMPLE_MESSAGE)
    benchmark(canonical_decode, encoded)


def test_hmac_sign(benchmark, config):
    statement = prepare_reply_statement(Timestamp(1, "client:a"), b"\x02" * 32)
    benchmark(config.scheme.sign, "replica:0", statement)


def test_hmac_verify(benchmark, config):
    statement = prepare_reply_statement(Timestamp(1, "client:a"), b"\x02" * 32)
    sig = config.scheme.sign("replica:0", statement)
    benchmark(config.scheme.verify, sig, statement)


def test_rsa_sign(benchmark, rsa_config):
    statement = prepare_reply_statement(Timestamp(1, "client:a"), b"\x02" * 32)
    benchmark(rsa_config.scheme.sign, "replica:0", statement)


def test_rsa_verify(benchmark, rsa_config):
    statement = prepare_reply_statement(Timestamp(1, "client:a"), b"\x02" * 32)
    sig = rsa_config.scheme.sign("replica:0", statement)
    benchmark(rsa_config.scheme.verify, sig, statement)


def test_prepare_certificate_validation(benchmark, config, prepare_cert):
    benchmark(prepare_cert.validate, config.scheme, config.quorums)


def test_certificate_wire_round_trip(benchmark, prepare_cert):
    wire = prepare_cert.to_wire()
    benchmark(PrepareCertificate.from_wire, wire)


def test_scheduler_event_throughput(benchmark):
    def churn():
        sched = Scheduler()
        count = 0
        def tick():
            nonlocal count
            count += 1
            if count < 1000:
                sched.call_later(0.001, tick)
        sched.call_later(0.001, tick)
        sched.run_until_idle()
        return count

    assert benchmark(churn) == 1000


def test_full_write_simulation(benchmark):
    """One complete simulated 3-phase write, end to end."""
    from repro import build_cluster

    def one_write():
        cluster = build_cluster(f=1, seed=0)
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", 1))
        cluster.run(max_time=60)
        return cluster.metrics.operations

    assert benchmark(one_write) == 1
