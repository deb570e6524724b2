"""The CLI's deterministic reports, pinned byte for byte.

Each command below runs on the seeded simulator (or prints a fixed
table), so its stdout is a pure function of the code.  A refactor that
claims "same behaviour" must leave every digest unchanged; a change that
means to move one updates that digest and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from repro.__main__ import main

GOLDEN = {
    "compare": (
        "99120e36136f2b4280c16e91d7569b82f4dcb4edf621419ff394eda601fbbe7a"
    ),
    "shard rebalance --json": (
        "8547c8002e8c8eb08613386ab0876a0be4c8bb0845043140047b990cbfd537ac"
    ),
    "load --rate 200 --duration 2 --identities 5000 "
    "--service-delay 0.0005 --json": (
        "cccb43f39eee5b615a3f707308e2532cc839dcc34526ec1f82e0e766a6228d09"
    ),
    "attacks": (
        "7a60af068ea450ce93872128b431e092aabe79785aa1511bec7bae0c9741dfb5"
    ),
    "chaos run --seed 7 --episodes 40 --json": (
        "ac616c522fdf7e8f295d90d95996fafd7b11eaa0006c7124b9fbcffbe5700795"
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(command.split())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[command], out.getvalue()
