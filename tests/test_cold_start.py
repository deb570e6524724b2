"""Cold start: what a fresh interpreter loads.

Every package declares its public names once, as a table of name ->
defining module, and loads a module only when one of its names is first
asked for.  These pins run each case in a fresh interpreter and check
module sets, not timings, so they are exact: ``import repro`` loads no
subpackage, a ``serve`` worker loads only the layers it runs, and the
message registry decodes every kind whatever happened to be imported.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from typing import Any

import repro
from repro.baselines.messages import BqsWriteRequest
from repro.core.messages import message_wire_bytes
from repro.core.timestamp import Timestamp
from repro.crypto.signatures import Signature
from repro.shard.messages import DirectoryRequest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import gen_api_docs  # noqa: E402

#: Prints the ``repro`` modules the interpreter has loaded, as JSON.
LOADED = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
)


def fresh(code: str, *argv: str) -> Any:
    """Run ``code`` in a new interpreter with ``src`` and ``tools`` on the
    path; return the JSON value of its last line of output."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")])
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_under(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_import_repro_loads_no_subpackage():
    assert fresh("import repro; " + LOADED) == ["repro", "repro._exports"]


def test_a_serve_worker_loads_only_the_layers_it_runs(tmp_path):
    """The CLI module plus a replica group started and stopped the way
    ``serve`` does it, on ephemeral loopback ports.  A replica host runs
    no client code either."""
    code = (
        "import asyncio, sys\n"
        "import repro.__main__\n"
        "from repro.cluster import DeploymentSpec\n"
        "from repro.cluster.deploy import ReplicaGroup\n"
        "spec = DeploymentSpec(transport='tcp', store='file', data_dir=sys.argv[1])\n"
        "config = spec.make_config(['client:'])\n"
        "async def cycle():\n"
        "    ids = list(config.quorums.replica_ids)\n"
        "    group = await ReplicaGroup.start(spec, config, node_ids=ids, ports=[0] * len(ids))\n"
        "    await group.stop()\n"
        "asyncio.run(cycle())\n" + LOADED
    )
    modules = fresh(code, str(tmp_path))
    for package in (
        "repro.sim",
        "repro.chaos",
        "repro.load",
        "repro.baselines",
        "repro.analysis",
        "repro.shard",
        "repro.spec",
        "repro.byzantine",
        "repro.crypto.rsa",
        "repro.core.client",
    ):
        assert loaded_under(modules, package) == [], package
    layers = {m.split(".")[1] for m in modules if m.count(".")}
    assert layers == {
        "__main__", "_exports", "errors",
        "core", "crypto", "encoding", "storage", "net", "obs", "cluster",
    }


def test_the_facade_resolves_each_name_to_its_defining_module():
    code = (
        "import importlib, json, repro\n"
        "same = all(getattr(repro, name) is getattr(importlib.import_module(module), name)"
        " for name, module in repro._EXPORTS.items())\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "bound = sorted(name for name in namespace if name != '__builtins__')\n"
        "try:\n"
        "    repro.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps([same, bound, sorted(set(repro.__all__) - set(dir(repro))),"
        " unknown]))"
    )
    same, bound, undir, unknown = fresh(code)
    assert same
    assert len(repro.__all__) == 102
    assert bound == sorted(repro.__all__)
    assert undir == []
    assert unknown == "AttributeError"


def committed_wire_table() -> list[str]:
    """PROTOCOL.md's generated wire table, as committed."""
    text = (ROOT / "PROTOCOL.md").read_text(encoding="utf-8")
    table = text.partition(gen_api_docs.WIRE_BEGIN)[2].partition(gen_api_docs.WIRE_END)[0]
    return table.strip("\n").splitlines()


def test_the_registry_is_complete_whatever_was_imported():
    """A process that imported only ``core.messages`` decodes a shard and a
    baseline kind, lists all 40 kinds in the committed order, and generates
    the same wire table."""
    frames = [
        message_wire_bytes(message).hex()
        for message in (
            DirectoryRequest(shard="shard:0"),
            BqsWriteRequest(
                value="v", ts=Timestamp(1, "client:a"),
                writer_sig=Signature("client:a", b"s"),
            ),
        )
    ]
    code = (
        "import json, sys\n"
        "from repro.core.messages import message_from_wire, registered_messages\n"
        "from repro.encoding.canonical import canonical_decode\n"
        "decoded = [message_from_wire(canonical_decode(bytes.fromhex(h))).KIND"
        " for h in sys.argv[1:]]\n"
        "kinds = list(registered_messages())\n"
        "import gen_api_docs\n"
        "print(json.dumps([decoded, kinds, gen_api_docs.wire_format_table()]))"
    )
    decoded, kinds, table = fresh(code, *frames)
    assert decoded == ["DIR-REQ", "BQS-WRITE"]
    committed = committed_wire_table()
    assert table == committed
    committed_kinds = [row.split("`")[1] for row in committed[2:]]
    assert kinds == list(dict.fromkeys(committed_kinds))
    assert len(kinds) == 40


def test_the_docs_regenerate_identically_from_a_lean_start():
    before = [
        (ROOT / name).read_bytes() for name in ("PROTOCOL.md", "docs/API.md")
    ]
    fresh(
        "import repro.core.messages, gen_api_docs\n"
        "print(gen_api_docs.main())"
    )
    after = [(ROOT / name).read_bytes() for name in ("PROTOCOL.md", "docs/API.md")]
    assert after == before, "run tools/gen_api_docs.py"
