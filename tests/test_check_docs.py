"""Tier-1 gate for doc references (tools/check_docs.py): every backticked
repo path and ``repro.``-dotted name in the prose docs resolves, and every
numbered benchmark has its EXPERIMENTS.md section."""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402


def test_docs_references_resolve():
    assert check_docs.find_stale() == []


def test_every_numbered_benchmark_has_a_section():
    assert check_docs.missing_experiments() == []


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


def test_checker_flags_a_stale_bench_heading_and_a_missing_section(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_kept.py").write_text('"""E7 — kept (see E9)."""\n')
    (bench_dir / "bench_orphan.py").write_text('"""E8 — no section."""\n')
    (bench_dir / "bench_helper.py").write_text('"""Helper, like E7."""\n')
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(
        "## E7 — Kept (`bench_kept.py::test_e7`)\n"
        "## E8 — Renamed (`bench_gone.py`)\n"
        "Prose may name `bench_gone.py` freely.\n"
    )
    assert check_docs.find_stale([doc], bench_dir=bench_dir) == [
        ("EXPERIMENTS.md", 2, "bench_gone.py"),
    ]
    assert check_docs.missing_experiments(doc, bench_dir) == [
        ("bench_orphan.py", "E8"),
    ]
