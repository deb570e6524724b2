"""The facade boundary holds: examples/tests/benchmarks import public paths.

Runs ``tools/check_public_api.py`` (same pattern as test_layering) and also
spot-checks the facade exports directly so a failure points at the name.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_check_public_api_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_public_api.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_export_tables_name_modules_that_define_each_name(tmp_path):
    """Checked from source, without importing: a table entry whose module
    does not define the name (a typo) is reported."""
    sys.path.insert(0, str(ROOT / "tools"))
    import check_public_api

    assert check_public_api.undefined_exports() == []
    pkg = tmp_path / "repro" / "obs"
    pkg.mkdir(parents=True)
    (pkg / "spans.py").write_text("class Span: ...\nNULL_SPAN = Span()\n")
    (pkg / "__init__.py").write_text(
        "_EXPORTS = {\n"
        "    'Span': 'repro.obs.spans',\n"
        "    'NULL_SPAN': 'repro.obs.spans',\n"
        "    'Spam': 'repro.obs.spans',\n"
        "}\n"
    )
    problems = check_public_api.undefined_exports(tmp_path)
    assert len(problems) == 1 and "'Spam'" in problems[0]


def test_facade_exports_resolve():
    import repro

    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert missing == []


def test_facade_covers_the_supported_entry_points():
    import repro

    for name in (
        "build_cluster",
        "ClusterOptions",
        "SystemConfig",
        "Variant",
        "Instrumentation",
        "BftBcClient",
        "OptimizedBftBcClient",
        "StrongBftBcClient",
        "BftBcReplica",
        "OptimizedBftBcReplica",
        "AsyncClient",
        "ReplicaServer",
    ):
        assert name in repro.__all__, name
