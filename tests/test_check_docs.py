"""Tier-1 gate for doc references (tools/check_docs.py): every backticked
repo path and ``repro.``-dotted name in the prose docs resolves."""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402


def test_docs_references_resolve():
    assert check_docs.find_stale() == []


def test_checker_flags_a_stale_path_and_a_stale_name(tmp_path):
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "Live: `tools/check_docs.py:12`, `tests/test_check_docs.py::test_x`,\n"
        "`core/verification.py`, `repro.core.verification.Verifier.verify`,\n"
        "`repro.deploy()` and a bare `gone.py`.\n"
        "Stale: `tools/gone_tool.py:3` and\n"
        "`repro.core.verification.Verifier.resident_signature_entries`.\n"
        "```\n`tools/fenced_away.py`\n```\n"
    )
    assert check_docs.find_stale([doc]) == [
        ("DOC.md", 4, "tools/gone_tool.py:3"),
        ("DOC.md", 5, "repro.core.verification.Verifier.resident_signature_entries"),
    ]
