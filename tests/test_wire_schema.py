"""The declared wire schema: same bytes as the hand-written codecs, every
message declared completely, every leaf checked at the boundary.

``GOLDEN`` was recorded with the hand-written ``to_wire`` methods of the
parent commit, immediately before they were deleted: the derived encoder
must reproduce every hash, or signatures, WAL fixtures and chaos artifacts
made before the change stop verifying.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro import build_cluster
from repro.baselines.messages import (
    BqsReadReply,
    BqsReadRequest,
    BqsReadTsReply,
    BqsReadTsRequest,
    BqsWriteReply,
    BqsWriteRequest,
    PhxEchoReply,
    PhxEchoRequest,
    PhxReadReply,
    PhxReadRequest,
    PhxReadTsReply,
    PhxReadTsRequest,
    PhxWriteReply,
    PhxWriteRequest,
)
from repro.core.batching import BatchEnvelope
from repro.core.certificates import (
    PrepareCertificate,
    WriteCertificate,
    genesis_prepare_certificate,
)
from repro.core.messages import (
    BYTES,
    FastPrepReply,
    FastPrepRequest,
    FastWriteReply,
    FastWriteRequest,
    Message,
    PrepareReply,
    PrepareRequest,
    ReadReply,
    ReadRequest,
    ReadTsPrepReply,
    ReadTsPrepRequest,
    ReadTsReply,
    ReadTsRequest,
    RepairReply,
    RepairRequest,
    WriteReply,
    WriteRequest,
    message_from_wire,
    message_to_wire,
    message_wire_bytes,
    register_message,
    registered_messages,
    wire_field,
)
from repro.core.multiobject import EpochStaleReply, ObjectMessage
from repro.core.timestamp import Timestamp
from repro.crypto.commitments import ProofOfWriting
from repro.crypto.signatures import Signature
from repro.encoding import canonical_decode, canonical_encode
from repro.errors import ProtocolError
from repro.shard.messages import (
    ConfigSignReply,
    ConfigSignRequest,
    DirectoryReply,
    DirectoryRequest,
    InstallEpochAck,
    InstallEpochRequest,
    StateTransferReply,
    StateTransferRequest,
)

TS = Timestamp(3, "client:alice")
H = b"\x07" * 32
NONCE = b"n" * 16
SIG = Signature("replica:0", b"\x01" * 32)
SIGS = (
    SIG,
    Signature("replica:1", b"\x02" * 32),
    Signature("replica:2", b"\x03" * 32),
)
CLIENT_SIG = Signature("client:alice", b"\x0a" * 32)
MACS = (("replica:0", b"\xaa" * 16), ("replica:1", b"\xbb" * 16))
ROWS = (("replica:0", MACS), ("replica:1", MACS))
PROOF = ProofOfWriting(commitment=b"\x0c" * 32, opening=b"\x0d" * 32, rows=ROWS)
VALUE = ("client:alice", 3, {"k": b"payload"})
GENESIS = genesis_prepare_certificate()
PCERT = PrepareCertificate(TS, H, SIGS)
PCERT_VOUCH = PrepareCertificate(TS, H, SIGS[:2], evidence="vouch")
PCERT_PROOF = PrepareCertificate(TS, H, (), evidence="proof", proof=PROOF)
WCERT = WriteCertificate(TS, SIGS)
WCERT_PROOF = WriteCertificate(TS, (), evidence="proof", rows=ROWS)
SNAPSHOT = {
    "data": VALUE,
    "pcert": PCERT.to_wire(),
    "write_ts": TS.to_wire(),
    "plist": {"client:bob": (TS.to_wire(), H)},
    "optlist": None,
    "fastc": None,
    "swr": ((TS.to_wire(),),),
    "spr": (),
}
ENTRY = {"config": {"shard": "shard:0", "epoch": 1}, "sigs": (SIG.to_wire(),)}

#: One hand-built message per registered kind, every optional field both
#: ``None`` and present.
SAMPLES = {
    "READ-TS/none": ReadTsRequest(nonce=NONCE),
    "READ-TS/wcert": ReadTsRequest(nonce=NONCE, write_cert=WCERT),
    "READ-TS-REPLY/none": ReadTsReply(cert=GENESIS, nonce=NONCE, signature=SIG),
    "READ-TS-REPLY/vouches": ReadTsReply(
        cert=PCERT_PROOF, nonce=NONCE, signature=SIG, ts_vouch=SIGS[1],
        pvouch=SIGS[2],
    ),
    "PREPARE/none": PrepareRequest(
        prev_cert=GENESIS, ts=TS, value_hash=H, write_cert=None,
        justify_cert=None, signature=CLIENT_SIG,
    ),
    "PREPARE/certs": PrepareRequest(
        prev_cert=PCERT, ts=TS.succ("client:alice"), value_hash=H,
        write_cert=WCERT, justify_cert=WCERT, signature=CLIENT_SIG,
    ),
    "PREPARE-REPLY": PrepareReply(ts=TS, value_hash=H, signature=SIG),
    "WRITE": WriteRequest(value=VALUE, prepare_cert=PCERT, signature=CLIENT_SIG),
    "WRITE-REPLY": WriteReply(ts=TS, signature=SIG),
    "READ/none": ReadRequest(nonce=NONCE),
    "READ/wcert": ReadRequest(nonce=NONCE, write_cert=WCERT_PROOF),
    "READ-REPLY/none": ReadReply(
        value=None, cert=GENESIS, nonce=NONCE, signature=SIG
    ),
    "READ-REPLY/vouches": ReadReply(
        value=VALUE, cert=PCERT_VOUCH, nonce=NONCE, signature=SIG,
        ts_vouch=SIGS[1], pvouch=SIGS[2],
    ),
    "READ-TS-PREP/none": ReadTsPrepRequest(
        value_hash=H, write_cert=None, nonce=NONCE, signature=CLIENT_SIG
    ),
    "READ-TS-PREP/wcert": ReadTsPrepRequest(
        value_hash=H, write_cert=WCERT, nonce=NONCE, signature=CLIENT_SIG
    ),
    "READ-TS-PREP-REPLY/none": ReadTsPrepReply(
        cert=GENESIS, prepared_ts=None, prep_sig=None, nonce=NONCE,
        signature=SIG,
    ),
    "READ-TS-PREP-REPLY/prepared": ReadTsPrepReply(
        cert=PCERT, prepared_ts=TS.succ("client:alice"), prep_sig=SIGS[1],
        nonce=NONCE, signature=SIG,
    ),
    "FAST-PREP/none": FastPrepRequest(
        client="client:alice", value_hash=H, commitment=b"\x0c" * 32,
        nonce=NONCE, write_cert=None, macs=MACS,
    ),
    "FAST-PREP/wcert": FastPrepRequest(
        client="client:alice", value_hash=H, commitment=b"\x0c" * 32,
        nonce=NONCE, write_cert=WCERT_PROOF, macs=MACS,
    ),
    "FAST-PREP-REPLY/refused": FastPrepReply(
        replica="replica:0", prepared_ts=None, row=(), nonce=NONCE,
        mac=b"\xee" * 16,
    ),
    "FAST-PREP-REPLY/prepared": FastPrepReply(
        replica="replica:0", prepared_ts=TS, row=MACS, nonce=NONCE,
        mac=b"\xee" * 16,
    ),
    "FAST-WRITE": FastWriteRequest(
        client="client:alice", ts=TS, value=VALUE, proof=PROOF, nonce=NONCE,
        macs=MACS,
    ),
    "FAST-WRITE-REPLY": FastWriteReply(
        replica="replica:0", ts=TS, row=MACS, nonce=NONCE, mac=b"\xee" * 16
    ),
    "REPAIR-REQ": RepairRequest(replica="replica:2", nonce=NONCE),
    "REPAIR-REPLY": RepairReply(
        replica="replica:0", nonce=NONCE, snapshot=SNAPSHOT, fingerprint=H
    ),
    "BQS-READ-TS": BqsReadTsRequest(nonce=NONCE),
    "BQS-READ-TS-REPLY": BqsReadTsReply(ts=TS, nonce=NONCE, signature=SIG),
    "BQS-WRITE": BqsWriteRequest(value=VALUE, ts=TS, writer_sig=CLIENT_SIG),
    "BQS-WRITE-REPLY": BqsWriteReply(ts=TS, signature=SIG),
    "BQS-READ": BqsReadRequest(nonce=NONCE),
    "BQS-READ-REPLY/none": BqsReadReply(
        value=None, ts=TS, writer_sig=None, nonce=NONCE, signature=SIG
    ),
    "BQS-READ-REPLY/written": BqsReadReply(
        value=VALUE, ts=TS, writer_sig=CLIENT_SIG, nonce=NONCE, signature=SIG
    ),
    "PHX-READ-TS": PhxReadTsRequest(nonce=NONCE),
    "PHX-READ-TS-REPLY": PhxReadTsReply(ts=TS, nonce=NONCE, signature=SIG),
    "PHX-ECHO": PhxEchoRequest(ts=TS, value_hash=H, signature=CLIENT_SIG),
    "PHX-ECHO-REPLY": PhxEchoReply(ts=TS, value_hash=H, signature=SIG),
    "PHX-WRITE/no-echoes": PhxWriteRequest(
        value=VALUE, ts=TS, echo_sigs=(), signature=CLIENT_SIG
    ),
    "PHX-WRITE/echoes": PhxWriteRequest(
        value=VALUE, ts=TS, echo_sigs=SIGS, signature=CLIENT_SIG
    ),
    "PHX-WRITE-REPLY": PhxWriteReply(ts=TS, signature=SIG),
    "PHX-READ": PhxReadRequest(nonce=NONCE),
    "PHX-READ-REPLY": PhxReadReply(value=VALUE, ts=TS, nonce=NONCE, signature=SIG),
    "DIR-REQ": DirectoryRequest(shard="shard:0"),
    "DIR-REPLY/genesis": DirectoryReply(shard="shard:0", entries=()),
    "DIR-REPLY/chain": DirectoryReply(shard="shard:0", entries=(ENTRY, ENTRY)),
    "CFG-SIGN-REQ": ConfigSignRequest(config=ENTRY["config"]),
    "CFG-SIGN-REPLY": ConfigSignReply(
        shard="shard:0", epoch=1, signature=SIG.to_wire()
    ),
    "EPOCH-INSTALL": InstallEpochRequest(entry=ENTRY),
    "EPOCH-ACK": InstallEpochAck(shard="shard:0", epoch=1),
    "XFER-REQ": StateTransferRequest(shard="shard:0", nonce=NONCE),
    "XFER-REPLY": StateTransferReply(
        shard="shard:0", nonce=NONCE, epoch=1,
        objects={"obj:1": {"snapshot": SNAPSHOT, "fingerprint": H}},
    ),
    "OBJ/no-epoch": ObjectMessage(
        obj="obj:1", payload=message_to_wire(ReadTsRequest(nonce=NONCE))
    ),
    "OBJ/epoch": ObjectMessage(
        obj="obj:1", payload=message_to_wire(WriteReply(ts=TS, signature=SIG)),
        epoch=4,
    ),
    "EPOCH-STALE": EpochStaleReply(obj="obj:1", epoch=5),
    "BATCH": BatchEnvelope(
        payloads=(
            message_wire_bytes(ReadTsRequest(nonce=NONCE)),
            message_wire_bytes(WriteReply(ts=TS, signature=SIG)),
        )
    ),
}

#: sha256 of ``message_wire_bytes`` per sample, recorded at the parent commit.
GOLDEN = {
    "READ-TS/none": "6934ba15f7eab424761e887589cbb5bcfa9d9d952951e63c9102fb34846894b8",
    "READ-TS/wcert": "5b98ef49ddb1434f4a766f566199d0fbc680247f90ea4393ee679de954f52c3f",
    "READ-TS-REPLY/none": "abcce13dd5469a053ffa262bc300e85634a7d8f3d198b2332cc5f7f940b38513",
    "READ-TS-REPLY/vouches": "3a6894f380a59cebee14c29a6633c4ba2d62d3ac306172ed319494b6accb2966",
    "PREPARE/none": "56c2233f1a46aff53dac6a3b2fb254e54812828f02fc8792d992a45c0f624151",
    "PREPARE/certs": "0896ba5dcc61468f7965efda4a318a3b2be17b891b69366cf9323664e0782cbe",
    "PREPARE-REPLY": "44b575127c071b2aeef13f5d60db143a919f6615754545b58713f089c409b182",
    "WRITE": "8e554bb6bc3ef7e5f4b6a4bd775447d8285ad7e87a695d07d14e3f14eb1c674b",
    "WRITE-REPLY": "5384ae581f24c807c2152e69ba0a2c33f976f849f891f6974382b0da7501ab05",
    "READ/none": "1bec6052d3371c10e6cd8285a4beb7a3f7e321c03f96918bc545af9d4f151b7b",
    "READ/wcert": "d08b63ca960242c5677d234509ededdde35e7bd82d798ab71a1f1494640df5eb",
    "READ-REPLY/none": "91b4dccd7d260f6230e2ab0d24ce904b9a2c159ce0e53dd27a3c02af3f2b82b3",
    "READ-REPLY/vouches": "330c554a076881e2c32aaa8d4c6e84c5528e62b7d276b24408b7429dea8c4517",
    "READ-TS-PREP/none": "dc4cbf8a78a49adbd6af2c06105ac3e3888e2ebdaab2cfe9cce577a69b7ff2b4",
    "READ-TS-PREP/wcert": "af64dc4adfec1e24cd7151e23d5f43e21e7e7d10eb32fa0d4af537e9f0fe463a",
    "READ-TS-PREP-REPLY/none": "8845dfa94de363758ebfa03fd8b35a3649733d1bc122f754ff20d478cf2fa89f",
    "READ-TS-PREP-REPLY/prepared": "859d772aea9d685e0836b269af1f27e48124bd1bc79476bf48af62727ad71410",
    "FAST-PREP/none": "7a8f9b1abe31b42a279774c2fc897b4b475afc240fea843f39bb9e7e98afe461",
    "FAST-PREP/wcert": "7bcf0b05abc4161c14eaab6ebec83392705c4ca49cc394b3deae6a8f4d7fc9d8",
    "FAST-PREP-REPLY/refused": "aa26cbe8e3d5e2ce00513fc4d9f8d9d76df780736a213012c144deaa17491316",
    "FAST-PREP-REPLY/prepared": "ca58bb46274f4d197fa2cdd13bd42fb97a3d44bb7284da003a7f6ec541b4767b",
    "FAST-WRITE": "496128dcb0d689ce6a8aa2dbd9656a0728f759f70da4dfc99d08b5df78240c29",
    "FAST-WRITE-REPLY": "4d8ceeebba606d5ccdd69559278a11defa9849d14d858e6c302c279d16d78f17",
    "REPAIR-REQ": "2ef7c8cb5be70d7be954e8d4ba80b3d621b76600dbfaa2eb7bee13b19353519e",
    "REPAIR-REPLY": "1fef2a783a03afab30b3ab2621a219296e82ed295ed3119ca3f4781294eb01ce",
    "BQS-READ-TS": "10ad3881f9a32fe745a33d5d16293953dcba0a1ed563658c9d0f7211692c4832",
    "BQS-READ-TS-REPLY": "b90cafbf3dffeb5561a83a34f262a4f2439bf739738933b72be7dc56834c6c25",
    "BQS-WRITE": "e934d301afdb5bb08c3e6c467eef6e862d185d90d665d47509fd78e471e8bd82",
    "BQS-WRITE-REPLY": "06dac0df7b3ea1cdc664f42571ebfde17df2ebb4eaf8d9d0a914f8b71a0bd739",
    "BQS-READ": "4880f2e18a6026150f800a7bcf2c4f7040fed766dca8496d4eb3f75ac707ba4d",
    "BQS-READ-REPLY/none": "fdf600b5d27e38c0c116606868eb2e386c3c5449b588e5a39c8384682ea8ffe5",
    "BQS-READ-REPLY/written": "400f354335abb352cf62ed5bddee281814bace6fa5882073d6203c1b6621e665",
    "PHX-READ-TS": "f619e1c5fa12f91cb86895cc2e156f5b2102b77ced459f6b3511e68b54c0d474",
    "PHX-READ-TS-REPLY": "0d5d08de4794a68920d6c6046ab4dd48437d44158624943bc986faeb542398a0",
    "PHX-ECHO": "752c869180401aff7d941387c78708f92014bece0f0ebe28e67ee67f5e71c473",
    "PHX-ECHO-REPLY": "7dc81650339f47de76ed3093a45fae0fb60cda411054fc89123c319fbfe57dea",
    "PHX-WRITE/no-echoes": "e6e8eb9e35744d00d540fc14cdc3a4d61275c86ba45367aa782753ba2d6d81b8",
    "PHX-WRITE/echoes": "10f9458b0e2304ab242854d869b4b6b81a5ef0f1d3dd3e7787cdf4aa2beef877",
    "PHX-WRITE-REPLY": "b132e9b5fee1abed23f20a80aac7508424983d86acd7a9d5898b6e46bd7c40d0",
    "PHX-READ": "901f3d681b34d93b6404c3299ccd59bf5bcffde467769566eab390e208599a64",
    "PHX-READ-REPLY": "a27d35a2a87947f2f81cc671bddb0cdc2b61057a9b4510a906233561395ed0a1",
    "DIR-REQ": "4575ce1f1af6d4cb8cb9d37f383ca38d1cd11fc98f55ab01f13647c743d4ccaf",
    "DIR-REPLY/genesis": "862e2754feaa19e5ab206bf930c4fe8501b45c7c3fe58eb0cddf6661473e673d",
    "DIR-REPLY/chain": "1321e9822d862b775fd3ff313707839f6f9da8a0ddaf999871d3b365784c8321",
    "CFG-SIGN-REQ": "48c7fb952b227b1144101494187cf068f635ebdc1cfb6a24cccc8e9e8d64c41a",
    "CFG-SIGN-REPLY": "e87b04be84c02c4437f6691b86a33dc844926092b74a1501847e3e850c7ab5db",
    "EPOCH-INSTALL": "6138c9cc111bd1e179f1c0e274d71aa91a7cf8c7cbd5c726e5291ca3be3572e5",
    "EPOCH-ACK": "f381e89fdf9812ff50f41d17ea28aee779da6f6e68aa08df0009e5562b715287",
    "XFER-REQ": "ae81a8ac6577ef2114d7011c6894b6fe2815842f2c5e17d95b4ad97e15fd7698",
    "XFER-REPLY": "9aec6d7a895763e57dcab74a07b6880e33642a336c6e0357b2a7c3f6e093a820",
    "OBJ/no-epoch": "a881674501faa1c7192d094f6b808d8bd07fe4151ffb353b7ce490168b839256",
    "OBJ/epoch": "5a5d5ec1dbc569b7038c898df730913eb94f01ff85a98b4f8b2318b9cfc0ddcb",
    "EPOCH-STALE": "b115e6a0a7d1fd77cea5e1680286d2d9492b5f2f5f1bed9cb51bd09a9bb334f9",
    "BATCH": "336955bc16277b8c29d5a03d6708bf2b6a02973134b6f0ece689b1aed4bc02ee",
}


def _from_bytes(message):
    """Decode as a receiver does: through the canonical codec."""
    return message_from_wire(canonical_decode(message_wire_bytes(message)))


# -- (a) same bytes ----------------------------------------------------------


def test_samples_cover_every_registered_kind_and_optional():
    assert {m.KIND for m in SAMPLES.values()} == set(registered_messages())
    assert set(SAMPLES) == set(GOLDEN)
    for kind, cls in registered_messages().items():
        mine = [m for m in SAMPLES.values() if m.KIND == kind]
        for field in cls.WIRE_FIELDS:
            if field.wire_type.name.startswith("optional"):
                seen = {getattr(m, field.name) is None for m in mine}
                assert seen == {True, False}, (kind, field.name)


@pytest.mark.parametrize("label", sorted(SAMPLES))
def test_derived_encoder_reproduces_the_hand_written_bytes(label):
    encoded = message_wire_bytes(SAMPLES[label])
    assert hashlib.sha256(encoded).hexdigest() == GOLDEN[label]


# -- (b) completeness --------------------------------------------------------


def test_every_registered_class_declares_every_field():
    for kind, cls in registered_messages().items():
        assert cls.KIND == kind
        declared = [field.name for field in cls.WIRE_FIELDS]
        assert declared == [f.name for f in dataclasses.fields(cls)], kind
        keys = [field.key for field in cls.WIRE_FIELDS]
        assert len(set(keys)) == len(keys) and "kind" not in keys, kind


def test_an_undeclared_field_is_refused_at_registration():
    @dataclasses.dataclass(frozen=True)
    class Partial(Message):
        KIND = "TEST-PARTIAL"
        nonce: bytes = wire_field("nonce", BYTES)
        extra: int = 0

    with pytest.raises(ProtocolError, match="extra"):
        register_message(Partial)
    assert "TEST-PARTIAL" not in registered_messages()


@pytest.mark.parametrize("label", sorted(SAMPLES))
def test_round_trip_through_the_canonical_codec(label):
    message = SAMPLES[label]
    assert _from_bytes(message) == message
    assert type(message).from_wire(message.to_wire()) == message


# -- leaf types are checked at the boundary ----------------------------------

#: Per declared type, wire values that must not pass for it.
WRONG = {
    "bytes": ("text", 7, None, {"a": (1, 2)}),
    "str": (b"raw", 7, None, ("s",)),
    "int": ("7", True, None, b"\x07"),
    "dict": ((1, 2), "d", None, 7),
    "timestamp": ((True, "c"), (1,), "ts", None, (-1, "c")),
    "signature": ((b"s", b"v"), ("s", "v"), ("s",), None),
    "prepare certificate": ((TS.to_wire(), "h", ()), ("bad",), None, 7),
    "write certificate": ((TS.to_wire(),), ("proof", TS.to_wire(), 7), None),
    "proof of writing": ((b"c", "o", ()), (b"c",), None),
    "MAC vector": ((("r", "mac"),), (("r",),), b"row", None),
    "tuple of signature": ((("s", "v"),), "sigs", None),
    "tuple of dict": ((1,), {"a": 1}, None),
    "non-empty tuple of bytes": ((), ("text",), b"raw", None),
}


def _wrong_values(field):
    name = field.wire_type.name
    if name == "value":
        return ()
    if name.startswith("optional "):
        return tuple(v for v in WRONG[name[len("optional "):]] if v is not None)
    return WRONG[name]


def test_wrong_table_covers_every_declared_type():
    names = {
        field.wire_type.name.removeprefix("optional ")
        for cls in registered_messages().values()
        for field in cls.WIRE_FIELDS
    }
    assert names - {"value"} == set(WRONG)


@pytest.mark.parametrize("label", sorted(SAMPLES))
def test_every_wrong_typed_field_is_a_protocol_error(label):
    message = SAMPLES[label]
    good = canonical_decode(message_wire_bytes(message))
    for field in type(message).WIRE_FIELDS:
        for bad in _wrong_values(field):
            mangled = dict(good)
            mangled[field.key] = bad
            with pytest.raises(ProtocolError):
                message_from_wire(mangled)
            # The mangled dict is still canonical input a peer could send.
            canonical_encode(mangled)


@pytest.mark.parametrize("label", sorted(SAMPLES))
def test_only_declared_keys_may_be_absent(label):
    message = SAMPLES[label]
    good = canonical_decode(message_wire_bytes(message))
    for field in type(message).WIRE_FIELDS:
        without = {k: v for k, v in good.items() if k != field.key}
        if field.absent_ok:
            assert getattr(message_from_wire(without), field.name) is None
        else:
            with pytest.raises(ProtocolError):
                message_from_wire(without)


def test_absent_ok_is_exactly_the_historical_set():
    absent_ok = {
        (kind, field.key)
        for kind, cls in registered_messages().items()
        for field in cls.WIRE_FIELDS
        if field.absent_ok
    }
    assert absent_ok == {
        ("READ", "wcert"),
        ("READ-TS", "wcert"),
        ("READ-TS-REPLY", "pvouch"),
        ("READ-REPLY", "pvouch"),
        ("OBJ", "epoch"),
    }


def test_unhashable_kind_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        message_from_wire({"kind": {"a": 1}})
    with pytest.raises(ProtocolError):
        message_from_wire({"kind": ("READ-TS", {})})


def test_replica_never_signs_an_echo_of_a_malformed_nonce():
    """The parent parsed this READ-TS and answered with a *signed* reply
    echoing the dict; now it dies at the boundary and counts as a discard."""
    hostile = {"kind": "READ-TS", "nonce": {"a": (1, 2)}, "wcert": None}
    with pytest.raises(ProtocolError):
        message_from_wire(hostile)

    cluster = build_cluster(f=1, seed=3)
    replica = cluster.replicas["replica:0"]
    handled = replica.stats.handled
    forged = ReadTsRequest(nonce=hostile["nonce"])
    assert message_to_wire(forged) == hostile
    cluster.network.send("client:mallory", "replica:0", forged)
    cluster.settle(1.0)
    assert cluster.network.stats.dropped_by_reason == {"parse-failure": 1}
    assert replica.stats.handled == handled
    assert cluster.network.stats.sent_by_kind == {"READ-TS": 1}
