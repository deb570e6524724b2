"""Tier-1 gate for the package layering (tools/check_layering.py).

The verification refactor introduced explicit layers —
``crypto`` → ``core.verification`` → ``core.*`` → ``net``/``sim`` — and this
test keeps them from silently eroding: any new import that reaches *up* the
stack fails the suite with the offending edge named.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_layering  # noqa: E402


def test_layering_clean():
    assert check_layering.find_violations() == []


def test_no_duplicate_dial_sites_or_variant_dispatch():
    assert check_layering.find_duplication() == []


def test_checker_flags_a_second_dial_site_and_a_variant_dispatch(tmp_path):
    """The two duplication rules: only ``net.mux`` dials, and only
    ``core``/the facade name the concrete variant classes — anywhere else
    may subclass them but not pick between them."""
    (tmp_path / "repro" / "net").mkdir(parents=True)
    (tmp_path / "repro" / "load").mkdir()
    (tmp_path / "repro" / "core").mkdir()
    (tmp_path / "repro" / "net" / "mux.py").write_text(
        "import asyncio\nasync def dial():\n    await asyncio.open_connection()\n"
    )
    (tmp_path / "repro" / "net" / "pool.py").write_text(
        "import asyncio\nasync def dial():\n    await asyncio.open_connection()\n"
    )
    (tmp_path / "repro" / "core" / "config.py").write_text(
        "from repro.core.client import FastBftBcClient\nTABLE = [FastBftBcClient]\n"
    )
    (tmp_path / "repro" / "load" / "ok.py").write_text(
        "from repro.core.client import OptimizedBftBcClient\n"
        "class Mine(OptimizedBftBcClient):\n    pass\n"
    )
    (tmp_path / "repro" / "load" / "bad.py").write_text(
        "from repro.core import client\n"
        "CLS = {'strong': client.StrongBftBcClient}\n"
    )
    found = check_layering.find_duplication(tmp_path)
    assert [(module, line) for module, line, _ in found] == [
        ("repro.load.bad", 2),
        ("repro.net.pool", 3),
    ]


def test_checker_flags_a_second_sim_loop(tmp_path):
    """Only ``sim.runner`` builds a scheduler and a network; naming the
    classes (annotations, imports) stays free everywhere."""
    (tmp_path / "repro" / "sim").mkdir(parents=True)
    (tmp_path / "repro" / "load").mkdir()
    build = "s = Scheduler()\nn = simnet.SimNetwork(s)\n"
    (tmp_path / "repro" / "sim" / "runner.py").write_text(build)
    (tmp_path / "repro" / "sim" / "nodes.py").write_text(
        "def host(network: SimNetwork, scheduler: Scheduler): ...\n"
    )
    (tmp_path / "repro" / "load" / "harness.py").write_text(build)
    found = check_layering.find_duplication(tmp_path)
    assert [(module, line) for module, line, _ in found] == [
        ("repro.load.harness", 1),
        ("repro.load.harness", 2),
    ]


def test_checker_flags_a_hand_written_codec_and_a_second_type_table(tmp_path):
    """Only ``Message`` itself carries ``to_wire``/``from_wire``, and only
    ``core.messages`` builds ``WireType``s; declaring fields with the named
    types stays free everywhere."""
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "shard").mkdir()
    (tmp_path / "repro" / "core" / "messages.py").write_text(
        "BYTES = WireType('bytes', check)\n"
        "class Message:\n"
        "    def to_wire(self): ...\n"
        "    @classmethod\n"
        "    def from_wire(cls, wire): ...\n"
    )
    (tmp_path / "repro" / "shard" / "ok.py").write_text(
        "class Ping(Message):\n"
        "    nonce: bytes = wire_field('nonce', BYTES)\n"
        "class Plan:\n"
        "    def to_wire(self): ...\n"
    )
    (tmp_path / "repro" / "shard" / "bad.py").write_text(
        "from repro.core import messages\n"
        "PAIR = messages.WireType('pair', check)\n"
        "class Pong(messages.Message):\n"
        "    def to_wire(self): ...\n"
        "    @classmethod\n"
        "    def from_wire(cls, wire): ...\n"
    )
    found = check_layering.find_duplication(tmp_path)
    assert sorted((module, line) for module, line, _ in found) == [
        ("repro.shard.bad", 2),
        ("repro.shard.bad", 4),
        ("repro.shard.bad", 6),
    ]


def test_checker_flags_a_barrier_outside_storage(tmp_path):
    """Only ``repro.storage`` calls ``fsync``; a host that syncs for itself
    is the per-record barrier growing back.  Naming the *policy*
    (``spec.fsync``, ``fsync="always"``) stays free everywhere."""
    (tmp_path / "repro" / "storage").mkdir(parents=True)
    (tmp_path / "repro" / "net").mkdir()
    (tmp_path / "repro" / "storage" / "filelog.py").write_text(
        "import os\ndef sync(fd):\n    os.fsync(fd)\n"
    )
    (tmp_path / "repro" / "net" / "ok.py").write_text(
        "def build(spec):\n    return Store(fsync=spec.fsync)\n"
    )
    (tmp_path / "repro" / "net" / "bad.py").write_text(
        "import os\nfrom os import fsync\n"
        "def reply(fd):\n    os.fsync(fd)\n    fsync(fd)\n"
    )
    found = check_layering.find_duplication(tmp_path)
    assert [(module, line) for module, line, _ in found] == [
        ("repro.net.bad", 4),
        ("repro.net.bad", 5),
    ]


def test_checker_flags_an_ablation_switch(tmp_path):
    """Every cache is always on: a ``set_*_enabled`` toggle anywhere under
    ``src/repro`` is an ablation arm growing back.  Other setters and
    other ``*_enabled`` names stay free."""
    (tmp_path / "repro" / "encoding").mkdir(parents=True)
    (tmp_path / "repro" / "core").mkdir()
    (tmp_path / "repro" / "core" / "ok.py").write_text(
        "def set_epoch(epoch):\n    pass\n"
        "def tracing_enabled():\n    return True\n"
    )
    (tmp_path / "repro" / "encoding" / "memo.py").write_text(
        "_ENABLED = True\n"
        "def set_memo_enabled(enabled):\n"
        "    global _ENABLED\n"
        "    _ENABLED = enabled\n"
        "class Memo:\n"
        "    async def set_lookup_enabled(self, enabled):\n"
        "        pass\n"
    )
    found = check_layering.find_duplication(tmp_path)
    assert [(module, line) for module, line, _ in found] == [
        ("repro.encoding.memo", 2),
        ("repro.encoding.memo", 6),
    ]


def test_checker_flags_an_adversary_that_reaches_its_host(tmp_path):
    """Nothing under ``repro.byzantine`` touches a network, a scheduler or a
    timer: an adversary returns ``Send`` lists and counts retransmit ticks.
    Hosts elsewhere (``sim.nodes``) keep doing all three."""
    (tmp_path / "repro" / "byzantine").mkdir(parents=True)
    (tmp_path / "repro" / "sim").mkdir()
    (tmp_path / "repro" / "byzantine" / "ok.py").write_text(
        "class Attack:\n"
        "    def retransmit(self):\n"
        "        self.ticks -= 1\n"
        "        return [Send(dest, self.request)]\n"
    )
    (tmp_path / "repro" / "byzantine" / "actor.py").write_text(
        "class Actor:\n"
        "    def __init__(self, cluster):\n"
        "        self.net = cluster.network\n"
        "        cluster.scheduler.call_later(2.0, self.finish)\n"
        "    def again(self, loop):\n"
        "        loop.call_at(3.0, self.again)\n"
    )
    (tmp_path / "repro" / "sim" / "nodes.py").write_text(
        "def host(self):\n    self.scheduler.call_later(0.05, self.network.send)\n"
    )
    found = check_layering.find_duplication(tmp_path)
    assert sorted((module, line) for module, line, _ in found) == [
        ("repro.byzantine.actor", 3),
        ("repro.byzantine.actor", 4),
        ("repro.byzantine.actor", 4),
        ("repro.byzantine.actor", 6),
    ]


def test_checker_flags_a_replica_server_outside_the_front_door(tmp_path):
    """Only ``cluster.deploy`` builds ``ReplicaServer``s, directly or
    through ``durable``; the classmethod's own ``cls(...)``, the shard
    subclass and naming the class in an annotation stay free."""
    (tmp_path / "repro" / "cluster").mkdir(parents=True)
    (tmp_path / "repro" / "net").mkdir()
    (tmp_path / "repro" / "chaos").mkdir()
    (tmp_path / "repro" / "cluster" / "deploy.py").write_text(
        "a = ReplicaServer(replica)\nb = ReplicaServer.durable(node, c, d)\n"
    )
    (tmp_path / "repro" / "net" / "asyncio_transport.py").write_text(
        "class ReplicaServer:\n"
        "    @classmethod\n"
        "    def durable(cls, replica):\n"
        "        return cls(replica)\n"
    )
    (tmp_path / "repro" / "net" / "shard_transport.py").write_text(
        "class ShardReplicaServer(ReplicaServer):\n    pass\n"
        "server = ShardReplicaServer(replica)\n"
    )
    (tmp_path / "repro" / "chaos" / "tcp.py").write_text(
        "from repro.net import asyncio_transport\n"
        "servers: list[ReplicaServer] = []\n"
        "a = asyncio_transport.ReplicaServer(replica)\n"
        "b = ReplicaServer.durable(node, c, d)\n"
    )
    found = check_layering.find_duplication(tmp_path)
    assert [(module, line) for module, line, _ in found] == [
        ("repro.chaos.tcp", 3),
        ("repro.chaos.tcp", 4),
    ]


def test_checker_flags_a_second_client_host(tmp_path):
    """Only ``sim.nodes`` registers, sends or unregisters on a receiver
    named ``network``; other ``send`` receivers (a socket endpoint) and
    other network calls (fault injection) stay free."""
    (tmp_path / "repro" / "sim").mkdir(parents=True)
    (tmp_path / "repro" / "load").mkdir()
    (tmp_path / "repro" / "sim" / "nodes.py").write_text(
        "network.register(node_id, handler)\nself.network.send(a, b, m)\n"
    )
    (tmp_path / "repro" / "load" / "harness.py").write_text(
        "harness.network.register(identity, on_message)\n"
        "self.network.send(identity, dest, message)\n"
        "network.unregister(identity)\n"
        "endpoint.send(node_id, sends)\n"
        "self.network.crash(node_id)\n"
    )
    found = check_layering.find_duplication(tmp_path)
    assert [(module, line) for module, line, _ in found] == [
        ("repro.load.harness", 1),
        ("repro.load.harness", 2),
        ("repro.load.harness", 3),
    ]


def test_checker_flags_a_second_frame_decoder(tmp_path):
    """Only the codec, the simulated network, the socket envelope and the
    stores call ``canonical_decode``; a host that parses frames itself
    bypasses the shared decode per frame in flight."""
    (tmp_path / "repro" / "net").mkdir(parents=True)
    (tmp_path / "repro" / "sim").mkdir()
    (tmp_path / "repro" / "storage").mkdir()
    (tmp_path / "repro" / "net" / "simnet.py").write_text(
        "m = message_from_wire(canonical_decode(encoded))\n"
    )
    (tmp_path / "repro" / "storage" / "filelog.py").write_text(
        "from repro.encoding import canonical_decode\nr = canonical_decode(p)\n"
    )
    (tmp_path / "repro" / "sim" / "nodes.py").write_text(
        "from repro import encoding\n"
        "from repro.encoding import canonical_decode\n"
        "a = canonical_decode(frame)\n"
        "b = encoding.canonical_decode(frame)\n"
    )
    found = check_layering.find_duplication(tmp_path)
    assert [(module, line) for module, line, _ in found] == [
        ("repro.sim.nodes", 3),
        ("repro.sim.nodes", 4),
    ]


def test_checker_flags_a_second_spelling_of_durable_state(tmp_path):
    """Every durable field is declared once in ``repro.core.persistence``;
    elsewhere its private attributes, the ``_silent`` mutators and its WAL
    record-tag literals are a second copy of the table growing back."""
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "sim").mkdir()
    (tmp_path / "repro" / "core" / "persistence.py").write_text(
        'F = DurableField("plist", RULE, ("plist-set", "plist-del"), a, b, {})\n'
        "x = state._data\n"
        "state.plist._clear_silent()\n"
    )
    (tmp_path / "repro" / "sim" / "ok.py").write_text(
        'state.perturb("plist", None)\nname = "plist"\nother._datum = 1\n'
    )
    (tmp_path / "repro" / "sim" / "nodes.py").write_text(
        "state._data = 1\n"
        "state._write_ts = ZERO_TS\n"
        "y = state._pcert\n"
        "state.plist._clear_silent()\n"
        'store.append(("plist-set", client, ts, h))\n'
        'kind = "plist-del"\n'
    )
    found = check_layering.find_duplication(tmp_path)
    assert sorted((module, line) for module, line, _ in found) == [
        ("repro.sim.nodes", line) for line in (1, 2, 3, 4, 5, 6)
    ]
    assert check_layering.durable_tags(check_layering.SRC) >= {
        "install", "write-ts", "plist-set", "fastc-del", "swr", "spr"
    }


def test_checker_flags_a_comparison_against_a_variant_name(tmp_path):
    """Each variant's facts are declared once, by its ``Protocol`` in
    ``repro.core.config``; elsewhere a comparison against a variant-name
    literal is a per-variant branch growing back.  Naming a variant is fine."""
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "chaos").mkdir()
    (tmp_path / "repro" / "core" / "config.py").write_text(
        'strong = variant == "strong"\n'
    )
    (tmp_path / "repro" / "chaos" / "ok.py").write_text(
        'VARIANTS = ("base", "optimized")\n'
        'cluster = build(variant="fastpath")\n'
        "bound = Variant.coerce(variant).protocol.max_b\n"
        'same = mode == "based"\n'
    )
    (tmp_path / "repro" / "chaos" / "bad.py").write_text(
        'if variant == "fastpath":\n    pass\n'
        'bound = 2 if "base" != variant else 1\n'
        'two = variant in ("optimized", "fastpath")\n'
        'other = str(plan.variant) not in ["strong"]\n'
    )
    found = check_layering.find_duplication(tmp_path)
    assert sorted((module, line) for module, line, _ in found) == [
        ("repro.chaos.bad", line) for line in (1, 3, 4, 5)
    ]


def test_checker_flags_a_hand_written_fault_spec(tmp_path):
    """Each fault op is declared once, by a ``FaultOp`` in
    ``repro.sim.faults``; elsewhere a dict display with an ``"op"`` key is a
    hand-written spec and a comparison against a declared op name is a
    per-op branch.  Naming an op in a call or a plain string is fine."""
    (tmp_path / "repro" / "sim").mkdir(parents=True)
    (tmp_path / "repro" / "chaos").mkdir()
    (tmp_path / "repro" / "sim" / "faults.py").write_text(
        'OPS = [FaultOp("crash", "network"), FaultOp("wal_bitflip", "node")]\n'
        'spec = {"op": "crash", "time": 0.0}\n'
        'flip = op == "wal_bitflip"\n'
    )
    (tmp_path / "repro" / "chaos" / "ok.py").write_text(
        'schedule.add("wal_bitflip", 0.5, node="replica:1")\n'
        'draws = {"wal_bitflip": 1}\n'
        'span = instr.event("chaos.crash replica:0")\n'
        'same = kind == "crashed"\n'
    )
    (tmp_path / "repro" / "chaos" / "bad.py").write_text(
        'spec = {"op": "wal_bitflip", "time": 0.0, "node": victim}\n'
        'if spec["op"] == "crash":\n    pass\n'
        'disk = op in ("wal_bitflip", "snapshot_truncate")\n'
        'faults.append(dict(spec, **{"op": "meteor"}))\n'
    )
    found = check_layering.find_duplication(tmp_path)
    assert sorted((module, line) for module, line, _ in found) == [
        ("repro.chaos.bad", line) for line in (1, 2, 4, 5)
    ]


def test_checker_flags_a_statement_built_at_its_call(tmp_path):
    """Signed bytes come from a statement builder: a tuple display passed to
    ``sign`` / ``verify`` / ``mac`` / ``check`` is a statement assembled at
    its call, and any call of ``intern_encode`` routes one through the
    deleted memo.  Builder results, names and bytes literals stay free."""
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "byzantine").mkdir()
    (tmp_path / "repro" / "core" / "ok.py").write_text(
        "sig = scheme.sign(node, prepare_reply_statement(ts, h))\n"
        "ok = verifier.verify(sig, statement)\n"
        "mac = auth.mac(a, b, b'probe')\n"
        "seen = check(replicas, clients)\n"
    )
    (tmp_path / "repro" / "byzantine" / "bad.py").write_text(
        "sig = actor.sign(('probe',))\n"
        "ok = scheme.verify(sig, ('WRITE-REPLY', ts))\n"
        "tag = auth.mac(a, b, intern_encode(('FAST-WRITE-ACK', ts)))\n"
        "good = auth.check(a, b, (x, y), mac)\n"
    )
    found = check_layering.find_duplication(tmp_path)
    assert sorted((module, line) for module, line, _ in found) == [
        ("repro.byzantine.bad", line) for line in (1, 2, 3, 4)
    ]


def test_checker_cli_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_layering.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "layering ok" in result.stdout


def test_checker_flags_synthetic_violation(tmp_path):
    """A crypto module importing core must be reported as an upward edge."""
    pkg = tmp_path / "repro" / "crypto"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text('"""pkg."""\n')
    (pkg / "__init__.py").write_text('"""pkg."""\n')
    (pkg / "bad.py").write_text("from repro.core.replica import BftBcReplica\n")
    violations = check_layering.find_violations(tmp_path)
    assert ("repro.crypto.bad", "repro.core.replica", 1, 3) in violations


def test_checker_reads_export_tables_as_imports(tmp_path):
    """A package's ``_EXPORTS`` table stands for the imports it names: an
    entry reaching up a layer is an upward edge, and an entry naming a
    module that does not exist is flagged."""
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (tmp_path / "repro" / "sim").mkdir()
    (tmp_path / "repro" / "sim" / "runner.py").write_text("def build_cluster(): ...\n")
    (core / "config.py").write_text("class Variant: ...\n")
    (core / "__init__.py").write_text(
        "_EXPORTS = {\n"
        "    'Variant': 'repro.core.config',\n"
        "    'build_cluster': 'repro.sim.runner',\n"
        "    'Ghost': 'repro.core.ghost',\n"
        "}\n"
    )
    assert check_layering.find_violations(tmp_path) == [
        ("repro.core", "repro.sim.runner", 3, 5)
    ]
    assert check_layering.find_dangling_exports(tmp_path) == [
        ("repro.core", "Ghost", "repro.core.ghost")
    ]
    assert check_layering.find_dangling_exports() == []


def test_checker_resolves_relative_imports(tmp_path):
    """Relative imports are resolved to absolute names before layering."""
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text('"""pkg."""\n')
    (core / "__init__.py").write_text('"""pkg."""\n')
    (core / "verification.py").write_text("from .config import SystemConfig\n")
    violations = check_layering.find_violations(tmp_path)
    assert ("repro.core.verification", "repro.core.config", 2, 3) in violations


def test_storage_sits_below_core():
    """The storage engine is a lower layer than the protocol that uses it."""
    assert check_layering.layer_of("repro.storage") is not None
    assert (
        check_layering.layer_of("repro.storage")
        < check_layering.layer_of("repro.core")
    )


def test_storage_imports_no_protocol_types():
    """Stores traffic only in wire values: encoding/errors, never core.

    The protocol-to-wire translation lives in ``repro.core.persistence``;
    if a store ever imported ``repro.core`` the same backend could no
    longer serve every replica variant.
    """
    src = ROOT / "src"
    for path in sorted((src / "repro" / "storage").rglob("*.py")):
        importer = check_layering.module_name_for(path, src)
        for imported in check_layering.imports_of(path, importer):
            assert not imported.startswith("repro.core"), (importer, imported)
            assert not imported.startswith("repro.crypto"), (importer, imported)


def test_checker_flags_storage_importing_core(tmp_path):
    """A store importing protocol state must be reported as an upward edge."""
    pkg = tmp_path / "repro" / "storage"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text('"""pkg."""\n')
    (pkg / "__init__.py").write_text('"""pkg."""\n')
    (pkg / "bad.py").write_text("from repro.core.replica import BftBcReplica\n")
    violations = check_layering.find_violations(tmp_path)
    assert ("repro.storage.bad", "repro.core.replica", 1, 3) in violations


def test_obs_sits_below_core():
    """The observability layer is below the protocol it instruments."""
    assert check_layering.layer_of("repro.obs") is not None
    assert (
        check_layering.layer_of("repro.obs")
        < check_layering.layer_of("repro.core")
    )


def test_obs_imports_no_protocol_types():
    """Instrumentation is transport- and protocol-agnostic: errors only."""
    src = ROOT / "src"
    for path in sorted((src / "repro" / "obs").rglob("*.py")):
        importer = check_layering.module_name_for(path, src)
        for imported in check_layering.imports_of(path, importer):
            assert not imported.startswith("repro.core"), (importer, imported)
            assert not imported.startswith("repro.sim"), (importer, imported)
            assert not imported.startswith("repro.net"), (importer, imported)


def test_verification_imports_no_core_siblings():
    """The pipeline layer depends only on crypto/encoding/errors."""
    src = ROOT / "src"
    path = src / "repro" / "core" / "verification.py"
    imports = check_layering.imports_of(path, "repro.core.verification")
    uplevel = {
        m
        for m in imports
        if check_layering.layer_of(m) is not None
        and check_layering.layer_of(m) > 2
    }
    assert not uplevel, uplevel
