"""Domain separation of signed statements.

Every signed byte-string must be unambiguous: no two different statement
builders (across the core protocol AND the baselines) may ever produce the
same canonical encoding, or a signature earned in one role could be replayed
in another.
"""

from __future__ import annotations

from repro.baselines.statements import (
    bqs_read_reply_statement,
    bqs_read_ts_reply_statement,
    bqs_write_reply_statement,
    bqs_write_statement,
    phx_echo_request_statement,
    phx_echo_statement,
    phx_read_reply_statement,
    phx_read_ts_reply_statement,
    phx_write_reply_statement,
    phx_write_request_statement,
)
from repro.core.statements import (
    prepare_reply_statement,
    prepare_request_statement,
    read_reply_statement,
    read_ts_prep_reply_statement,
    read_ts_prep_request_statement,
    read_ts_reply_statement,
    write_reply_statement,
    write_request_statement,
)
from repro.core.certificates import PrepareCertificate
from repro.core.timestamp import Timestamp
from repro.encoding import canonical_decode

TS = Timestamp(1, "client:a")
H = b"\x01" * 32
NONCE = b"\x02" * 16
VALUE = ("client:a", 1, None)
CERT = PrepareCertificate(ts=TS, value_hash=H, signatures=())


def all_statements():
    return {
        "prepare_reply": prepare_reply_statement(TS, H),
        "write_reply": write_reply_statement(TS),
        "read_ts_reply": read_ts_reply_statement(CERT, NONCE),
        "read_reply": read_reply_statement(VALUE, CERT, NONCE),
        "prepare_request": prepare_request_statement(CERT, TS, H, None, None),
        "write_request": write_request_statement(VALUE, CERT),
        "rtsp_request": read_ts_prep_request_statement(H, None, NONCE),
        "rtsp_reply": read_ts_prep_reply_statement(CERT, TS, NONCE),
        "bqs_write": bqs_write_statement(TS, H),
        "bqs_read_ts_reply": bqs_read_ts_reply_statement(TS, NONCE),
        "bqs_write_reply": bqs_write_reply_statement(TS),
        "bqs_read_reply": bqs_read_reply_statement(VALUE, TS, NONCE),
        "phx_echo_request": phx_echo_request_statement(TS, H),
        "phx_echo": phx_echo_statement(TS, H),
        "phx_write_request": phx_write_request_statement(VALUE, TS),
        "phx_read_ts_reply": phx_read_ts_reply_statement(TS, NONCE),
        "phx_write_reply": phx_write_reply_statement(TS),
        "phx_read_reply": phx_read_reply_statement(VALUE, TS, NONCE),
    }


def test_all_statement_types_pairwise_distinct():
    encoded = all_statements()
    names = list(encoded)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert encoded[a] != encoded[b], (a, b)


def test_statements_start_with_type_tag():
    """Each statement leads with its distinct type string — the mechanism
    behind the pairwise-distinctness guarantee."""
    tags = set()
    for name, encoded in all_statements().items():
        stmt = canonical_decode(encoded)
        assert isinstance(stmt, tuple) and isinstance(stmt[0], str), name
        assert stmt[0] not in tags, (name, stmt[0])
        tags.add(stmt[0])


def test_parameter_changes_change_encoding():
    base = prepare_reply_statement(TS, H)
    assert prepare_reply_statement(TS.succ("client:a"), H) != base
    assert prepare_reply_statement(TS, b"\x03" * 32) != base
