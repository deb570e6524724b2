"""Statement and message bytes are unchanged by encoding certificates once.

Every statement builder returns bytes assembled around a certificate's
stashed canonical encoding (``cert.encoded``), and ``message_wire_bytes``
assembles a message's bytes from its kind's pre-sorted keys and splices
its certificates the same way.  Every signature, MAC, pinned digest and
WAL record depends on those bytes staying exactly what encoding the
historical tuple (or wire dict) gives, so Hypothesis checks each builder
against that tuple form over certificates of every evidence form: genesis,
quorum, vouch, proof, and proof write-certificate rows.
"""

from __future__ import annotations

import dataclasses
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import statements as baseline
from repro.core import statements as core
from repro.core.certificates import (
    PrepareCertificate,
    WriteCertificate,
    genesis_prepare_certificate,
)
from repro.core.messages import message_to_wire, message_wire_bytes
from repro.core.timestamp import Timestamp
from repro.crypto.commitments import ProofOfWriting
from repro.crypto.signatures import Signature
from repro.encoding import canonical_encode
from repro.shard.directory import ShardConfig
from tests.test_wire_schema import SAMPLES

names = st.text(string.ascii_lowercase + ":0123456789", min_size=1, max_size=12)
timestamps = st.builds(Timestamp, st.integers(min_value=0, max_value=2**70), names)
hashes = st.binary(min_size=32, max_size=32)
nonces = st.binary(max_size=24)
values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
    | st.binary(max_size=12),
    lambda leaf: st.lists(leaf, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), leaf, max_size=3),
    max_leaves=8,
)
signatures = st.lists(
    st.builds(Signature, names, st.binary(max_size=40)), max_size=5
).map(tuple)
mac_rows = st.lists(
    st.tuples(names, st.lists(st.tuples(names, st.binary(max_size=32)), max_size=4).map(tuple)),
    max_size=4,
).map(tuple)
proofs = st.builds(ProofOfWriting, hashes, hashes, mac_rows)

prepare_certs = st.one_of(
    st.builds(genesis_prepare_certificate),
    st.builds(PrepareCertificate, timestamps, hashes, signatures),
    st.builds(
        lambda ts, h, sigs: PrepareCertificate(ts, h, sigs, evidence="vouch"),
        timestamps,
        hashes,
        signatures,
    ),
    st.builds(
        lambda ts, h, proof: PrepareCertificate(ts, h, (), evidence="proof", proof=proof),
        timestamps,
        hashes,
        proofs,
    ),
)
write_certs = st.one_of(
    st.builds(WriteCertificate, timestamps, signatures),
    st.builds(
        lambda ts, rows: WriteCertificate(ts, (), evidence="proof", rows=rows),
        timestamps,
        mac_rows,
    ),
)
maybe_write_certs = st.none() | write_certs
maybe_timestamps = st.none() | timestamps


def _wire(obj):
    return None if obj is None else obj.to_wire()


#: Per builder: its argument strategies and the tuple it used to return.
HISTORICAL = {
    core.prepare_reply_statement: (
        (timestamps, hashes),
        lambda ts, h: ("PREPARE-REPLY", ts.to_wire(), h),
    ),
    core.write_reply_statement: (
        (timestamps,),
        lambda ts: ("WRITE-REPLY", ts.to_wire()),
    ),
    core.read_ts_reply_statement: (
        (prepare_certs, nonces),
        lambda cert, nonce: ("READ-TS-REPLY", cert.to_wire(), nonce),
    ),
    core.read_reply_statement: (
        (values, prepare_certs, nonces),
        lambda value, cert, nonce: ("READ-REPLY", value, cert.to_wire(), nonce),
    ),
    core.prepare_request_statement: (
        (prepare_certs, timestamps, hashes, maybe_write_certs, maybe_write_certs),
        lambda prev, ts, h, wcert, justify: (
            "PREPARE", prev.to_wire(), ts.to_wire(), h, _wire(wcert), _wire(justify)
        ),
    ),
    core.write_request_statement: (
        (values, prepare_certs),
        lambda value, cert: ("WRITE", value, cert.to_wire()),
    ),
    core.read_ts_prep_request_statement: (
        (hashes, maybe_write_certs, nonces),
        lambda h, wcert, nonce: ("READ-TS-PREP", h, _wire(wcert), nonce),
    ),
    core.read_ts_prep_reply_statement: (
        (prepare_certs, maybe_timestamps, nonces),
        lambda cert, ts, nonce: ("READ-TS-PREP-REPLY", cert.to_wire(), _wire(ts), nonce),
    ),
    core.fast_prep_request_statement: (
        (names, hashes, hashes, maybe_write_certs, nonces),
        lambda client, h, c, wcert, nonce: (
            "FAST-PREP", client, h, c, _wire(wcert), nonce
        ),
    ),
    core.fast_prep_ack_statement: (
        (timestamps, hashes, hashes),
        lambda ts, h, c: ("FAST-PREP-ACK", ts.to_wire(), h, c),
    ),
    core.fast_prep_reply_statement: (
        (names, names, maybe_timestamps, hashes, hashes, nonces),
        lambda replica, client, ts, h, c, nonce: (
            "FAST-PREP-REPLY", replica, client, _wire(ts), h, c, nonce
        ),
    ),
    core.fast_write_request_statement: (
        (names, timestamps, hashes, hashes, nonces),
        lambda client, ts, h, c, nonce: (
            "FAST-WRITE", client, ts.to_wire(), h, c, nonce
        ),
    ),
    core.fast_write_ack_statement: (
        (timestamps,),
        lambda ts: ("FAST-WRITE-ACK", ts.to_wire()),
    ),
    core.fast_write_reply_statement: (
        (names, names, timestamps, nonces),
        lambda replica, client, ts, nonce: (
            "FAST-WRITE-REPLY", replica, client, ts.to_wire(), nonce
        ),
    ),
    core.fast_vouch_statement: (
        (timestamps, hashes),
        lambda ts, h: ("FAST-VOUCH", ts.to_wire(), h),
    ),
    baseline.bqs_write_statement: (
        (timestamps, hashes),
        lambda ts, h: ("BQS-WRITE", ts.to_wire(), h),
    ),
    baseline.bqs_read_ts_reply_statement: (
        (timestamps, nonces),
        lambda ts, nonce: ("BQS-READ-TS-REPLY", ts.to_wire(), nonce),
    ),
    baseline.bqs_write_reply_statement: (
        (timestamps,),
        lambda ts: ("BQS-WRITE-REPLY", ts.to_wire()),
    ),
    baseline.bqs_read_reply_statement: (
        (values, timestamps, nonces),
        lambda value, ts, nonce: ("BQS-READ-REPLY", value, ts.to_wire(), nonce),
    ),
    baseline.phx_echo_request_statement: (
        (timestamps, hashes),
        lambda ts, h: ("PHX-ECHO", ts.to_wire(), h),
    ),
    baseline.phx_echo_statement: (
        (timestamps, hashes),
        lambda ts, h: ("PHX-ECHO-REPLY", ts.to_wire(), h),
    ),
    baseline.phx_write_request_statement: (
        (values, timestamps),
        lambda value, ts: ("PHX-WRITE", value, ts.to_wire()),
    ),
    baseline.phx_read_ts_reply_statement: (
        (timestamps, nonces),
        lambda ts, nonce: ("PHX-READ-TS-REPLY", ts.to_wire(), nonce),
    ),
    baseline.phx_write_reply_statement: (
        (timestamps,),
        lambda ts: ("PHX-WRITE-REPLY", ts.to_wire()),
    ),
    baseline.phx_read_reply_statement: (
        (values, timestamps, nonces),
        lambda value, ts, nonce: ("PHX-READ-REPLY", value, ts.to_wire(), nonce),
    ),
}


def test_every_builder_has_a_historical_form():
    builders = {
        getattr(module, name)
        for module in (core, baseline)
        for name in module.__all__
    }
    assert builders == set(HISTORICAL)


@pytest.mark.parametrize("builder", list(HISTORICAL), ids=lambda b: b.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_builder_bytes_equal_the_historical_tuple(builder, data):
    strategies, historical = HISTORICAL[builder]
    args = data.draw(st.tuples(*strategies))
    assert builder(*args) == canonical_encode(historical(*args))
    # A second call, now splicing stashed certificate bytes, agrees.
    assert builder(*args) == canonical_encode(historical(*args))


@given(
    st.sampled_from(["s0", "shard:1"]),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_shard_config_statement_bytes_equal_the_historical_tuple(shard, epoch, f):
    members = tuple(f"replica:{i}" for i in range(3 * f + 1))
    config = ShardConfig(shard=shard, epoch=epoch, members=members, f=f)
    assert config.statement_bytes() == canonical_encode(
        ("shard-config", shard, epoch, f, members)
    )


@given(st.one_of(prepare_certs, write_certs, proofs))
@settings(max_examples=200, deadline=None)
def test_encoded_is_the_wire_encoding_stashed_per_instance(cert):
    twin = dataclasses.replace(cert)
    assert twin == cert and twin is not cert
    assert cert.encoded == canonical_encode(cert.to_wire())
    assert cert.encoded is cert.encoded
    # The stash lives on the instance: an equal twin encodes for itself,
    # and neither equality nor hashing sees the stashed bytes.
    assert "_canonical_bytes" not in vars(twin)
    assert twin.encoded == cert.encoded and twin.encoded is not cert.encoded
    assert twin == cert and hash(twin) == hash(cert)


#: Per message label: the fields whose wire type splices certificate bytes.
SPLICED = {
    label: [
        field
        for field in sample.WIRE_FIELDS
        if field.wire_type.splice is not None
    ]
    for label, sample in SAMPLES.items()
}
_FRESH = {
    "prepare certificate": prepare_certs,
    "optional prepare certificate": st.none() | prepare_certs,
    "write certificate": write_certs,
    "optional write certificate": maybe_write_certs,
    "proof of writing": proofs,
}


def test_samples_cover_every_registered_kind():
    from repro.core.messages import registered_messages

    assert {sample.KIND for sample in SAMPLES.values()} == set(registered_messages())
    assert len(registered_messages()) == 40


@pytest.mark.parametrize("label", sorted(SAMPLES))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_spliced_message_bytes_equal_the_wire_dict_encoding(label, data):
    changes = {
        field.name: data.draw(_FRESH[field.wire_type.name], label=field.name)
        for field in SPLICED[label]
    }
    message = dataclasses.replace(SAMPLES[label], **changes)
    assert message_wire_bytes(message) == canonical_encode(message_to_wire(message))
