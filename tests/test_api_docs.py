"""The generated API reference stays in sync with the code."""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_generator_runs_and_is_current(tmp_path):
    existing = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    protocol = (ROOT / "PROTOCOL.md").read_text(encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_docs.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    regenerated = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert regenerated == existing, (
        "docs/API.md is stale; run tools/gen_api_docs.py"
    )
    assert (ROOT / "PROTOCOL.md").read_text(encoding="utf-8") == protocol, (
        "PROTOCOL.md's wire-format, durable-record or phase table is stale; "
        "run tools/gen_api_docs.py"
    )


def test_durable_record_table_matches_the_declaration():
    sys.path.insert(0, str(ROOT / "tools"))
    import gen_api_docs

    protocol = (ROOT / "PROTOCOL.md").read_text(encoding="utf-8")
    _, begin, rest = protocol.partition(gen_api_docs.DURABLE_BEGIN)
    table, end, _ = rest.partition(gen_api_docs.DURABLE_END)
    assert begin and end, "PROTOCOL.md lost its durable-records markers"
    rows = gen_api_docs.durable_record_table()
    assert table.strip().splitlines() == rows, (
        "PROTOCOL.md's durable-record table is stale; run tools/gen_api_docs.py"
    )
    from repro.core.persistence import DURABLE_FIELDS

    assert len(rows) == 2 + len(DURABLE_FIELDS)


def test_phase_table_matches_the_declaration():
    sys.path.insert(0, str(ROOT / "tools"))
    import gen_api_docs

    protocol = (ROOT / "PROTOCOL.md").read_text(encoding="utf-8")
    _, begin, rest = protocol.partition(gen_api_docs.PHASES_BEGIN)
    table, end, _ = rest.partition(gen_api_docs.PHASES_END)
    assert begin and end, "PROTOCOL.md lost its protocol-phases markers"
    rows = gen_api_docs.protocol_phase_table()
    assert table.strip().splitlines() == rows, (
        "PROTOCOL.md's phase table is stale; run tools/gen_api_docs.py"
    )
    from repro.core.config import Variant

    phases = sum(len(v.protocol.write) + len(v.protocol.read) for v in Variant)
    assert len(rows) == 2 + phases + 3 + len(Variant)


def test_reference_covers_the_key_apis():
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    for needle in (
        "class `BftBcReplica`",
        "class `BftBcClient`",
        "class `PrepareCertificate`",
        "check_bft_linearizable",
        "check_lemma1",
        "class `ScheduleExplorer`",
        "class `SimNetwork`",
        "class `AsyncClient`",
    ):
        assert needle in text, needle
