"""Shared fixtures for the test suite."""

from __future__ import annotations

import pathlib
import sys

# Allow running the suite without installing the package: resolve the
# src-layout sources directly if `repro` is not importable.
try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.core import make_system
from repro.core.quorum import replica_id


@pytest.fixture
def config():
    """A base-protocol f=1 configuration with one registered client."""
    cfg = make_system(f=1, seed=b"test-seed")
    cfg.registry.register("client:alice")
    cfg.registry.register("client:bob")
    return cfg


@pytest.fixture
def strong_config():
    cfg = make_system(f=1, seed=b"test-seed-strong", strong=True)
    cfg.registry.register("client:alice")
    return cfg


@pytest.fixture
def f2_config():
    cfg = make_system(f=2, seed=b"test-seed-f2")
    cfg.registry.register("client:alice")
    return cfg


def make_prepare_cert(config, ts, value_hash):
    """Assemble a genuine prepare certificate by signing at each replica."""
    from repro.core.certificates import PrepareCertificate
    from repro.core.statements import prepare_reply_statement

    statement = prepare_reply_statement(ts, value_hash)
    sigs = tuple(
        config.scheme.sign(replica_id(i), statement)
        for i in range(config.quorum_size)
    )
    return PrepareCertificate(ts=ts, value_hash=value_hash, signatures=sigs)


def make_write_cert(config, ts):
    """Assemble a genuine write certificate by signing at each replica."""
    from repro.core.certificates import WriteCertificate
    from repro.core.statements import write_reply_statement

    statement = write_reply_statement(ts)
    sigs = tuple(
        config.scheme.sign(replica_id(i), statement)
        for i in range(config.quorum_size)
    )
    return WriteCertificate(ts=ts, signatures=sigs)
