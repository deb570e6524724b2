#!/usr/bin/env python3
"""Assert the package layering that the verification refactor established.

The intended layering, lowest first (a module may import from its own layer
or below, never above):

    0  repro.errors, repro.encoding
    1  repro.crypto, repro.storage
    2  repro.core.verification
    3  repro.core (everything else in core)
    4  repro.spec, repro.analysis, repro.shard
    5  repro.baselines, repro.byzantine, repro.net, repro.sim, repro.load,
       repro.cluster, repro (root)

The crucial edges this pins down: ``crypto`` never imports ``core``;
``core.verification`` sits between ``crypto`` and the rest of ``core`` and
imports nothing from ``core.*``; protocol logic (``core``) never reaches up
into transports or the simulator.  ``repro.storage`` sits *below*
``repro.core``: stores traffic only in canonical wire values (encoding,
layer 0) and never see protocol types — the translation lives in
``repro.core.persistence`` (layer 3), which is what lets the same store
back every replica variant.  The wire fast path keeps the same shape:
``encoding.encode_once`` and ``encoding.Encoded`` live at layer 0 so
``crypto`` and ``core`` can stash and splice a certificate's canonical
bytes.  ``repro.shard`` (placement, directory,
reconfiguration) composes ``core`` protocol machines but stays
transport-agnostic: the simulator, asyncio transport, and chaos engine
(layer 5) host shard roles, never the reverse.  Imports are discovered by parsing every
source file under ``src/repro`` with :mod:`ast` — including imports inside
``TYPE_CHECKING`` blocks and function bodies, so lazy imports cannot hide a
cycle-in-waiting.  A package ``__init__`` imports through its ``_EXPORTS``
table (name -> defining module, resolved on first access by
:mod:`repro._exports`), so each table entry counts as an import of its
module, and an entry naming a module that does not exist is flagged
(:func:`find_dangling_exports`).

Seventeen further rules keep deleted duplication from growing back
(:func:`find_duplication`): the TCP client stack lives in one module, so
``open_connection`` / ``create_connection`` may be named only in
``repro.net.mux`` (and the chaos proxy's upstream leg); the variant-to-class mapping lives on
``repro.core.config.Variant``, so outside ``repro.core`` and the ``repro``
facade the concrete variant classes may be named only as base classes, never
in a dispatch; and the simulated run loop lives on
``repro.sim.runner.SimHarness``, so ``Scheduler(`` and ``SimNetwork(`` may
be constructed only in ``repro.sim.runner``; and the wire layout is derived
from each message's declaration, so no subclass of ``Message`` may define
``to_wire`` or ``from_wire`` and ``WireType(`` (the schema's type table) may
be constructed only in ``repro.core.messages``; and the WAL barrier is spent
once per released reply batch by the store's ``group()`` scope, so
``os.fsync`` may be called only under ``repro.storage`` — a host that syncs
for itself is the per-record barrier growing back; and a Byzantine client
is a sans-I/O machine like a correct one, so nothing under
``repro.byzantine`` may read an attribute named ``network`` or ``scheduler``
or call ``call_later`` / ``call_at`` — an adversary that reaches its host is
the actor base growing back; and a replica group on real sockets is a
``DeploymentSpec`` through ``repro.cluster.deploy.ReplicaGroup``, so
``ReplicaServer(...)`` / ``ReplicaServer.durable(...)`` may be called only
in ``repro.cluster.deploy`` — a harness that builds its own servers is the
hand-rolled fleet growing back (the classmethod's own ``cls(...)`` and the
``ShardReplicaServer`` subclass are not this rule's business); and every
sans-I/O machine on the simulator is hosted by ``repro.sim.nodes``
(``MachineHost`` for client-side roles, ``ReplicaHost`` for replicas), so
``.register(`` / ``.unregister(`` / ``.send(`` on a receiver named
``network`` may be called only there — a harness that does its own
registration and sending is a second client host growing back; and the
simulated network parses each frame in flight once and shares the message
among its receivers, so ``canonical_decode(`` may be called only in
``repro.encoding``, ``repro.net.simnet``, ``repro.net.envelope`` and
``repro.storage`` — a host that parses frames itself bypasses the shared
decode; and every durable replica field is declared once, by a
``DurableField`` in ``repro.core.persistence``, so
outside that module nothing may touch ``._data`` / ``._write_ts`` /
``._pcert``, call a ``*_silent(`` mutator, or spell one of the declared WAL
record tags (``"plist-set"``, ``"write-ts"``, ``"spr"``, ...) as a string
literal — a second spelling of a field is a second table growing back;
and every cache is always on, so no function named ``set_*_enabled`` may be
defined anywhere — a module-level ablation toggle is a second code path that
no deployment runs; and each variant's phases, costs and bounds are declared
once, by its ``Protocol`` in ``repro.core.config``, so outside that module
nothing may compare against a variant-name literal (``== "fastpath"``,
``in ("optimized", "fastpath")``) — a per-variant branch is a second copy
of the declaration growing back; and each fault op is declared once, by a
``FaultOp`` in ``repro.sim.faults``, so outside that module nothing may
write a dict display with an ``"op"`` key or compare against a declared
fault-op name (``op == "wal_bitflip"``) — a hand-written spec or a
per-op branch is a second fault vocabulary growing back; and signed bytes
are built only by statement builders, which encode each statement once and
splice the certificates it embeds, so no tuple display may be passed to
``sign`` / ``verify`` / ``mac`` / ``check`` and nothing may call
``intern_encode`` — a statement assembled at its call site, or routed
through a process-wide memo, is a second encoding path growing back; and a
reply is a vote only if the replica that sent it signed it, a check
``repro.core.phases.signed_by`` owns, so outside that module no reply's
``.signer`` may be compared with its sender (``sig.signer != sender``,
``signature.signer == src``) — a hand-written sender check is a second copy
of the vote rule growing back (a replica's check that a request's signer is
its client is not this rule's business); and one client front-end,
``repro.core.client.BftBcClient``, drives every protocol's operations, the
baselines' included, so ``NonceSource(`` may be constructed only in
``repro.core.client`` and ``repro.byzantine.adversary`` — a client that
mints its own nonces is a copied front-end growing back; and both ends of
the TCP path are ``asyncio.Protocol`` callbacks that handle each frame in
the read callback, so ``start_server`` / ``create_server`` may be named
only in ``repro.net.asyncio_transport`` (and the chaos proxy, the one
streams path left) — a second listener is a second frame loop growing
back.

Run:  python tools/check_layering.py   (exits 1 and lists violations)
The tier-1 test ``tests/test_layering.py`` runs this on every suite run.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Longest-prefix match decides a module's layer.
LAYERS: dict[str, int] = {
    "repro.errors": 0,
    "repro._exports": 0,
    "repro.encoding": 0,
    "repro.encoding.interning": 0,
    "repro.crypto": 1,
    "repro.obs": 1,
    "repro.storage": 1,
    "repro.storage.integrity": 1,
    "repro.core.verification": 2,
    "repro.core.repair": 3,
    "repro.core": 3,
    "repro.spec": 4,
    "repro.analysis": 4,
    "repro.shard": 4,
    "repro.baselines": 5,
    "repro.byzantine": 5,
    "repro.net": 5,
    "repro.sim": 5,
    "repro.chaos": 5,
    "repro.load": 5,
    "repro.cluster": 5,
    "repro": 5,
}


#: The only modules that may open a client-side TCP connection.
DIAL_SITES = frozenset({"repro.net.mux", "repro.net.chaos_proxy"})
DIAL_CALLS = frozenset({"open_connection", "create_connection"})

#: The only modules that may listen for TCP connections.
LISTEN_SITES = frozenset({"repro.net.asyncio_transport", "repro.net.chaos_proxy"})
LISTEN_CALLS = frozenset({"start_server", "create_server"})

#: Concrete variant classes; ``Variant.replica_cls`` / ``.client_cls`` is the
#: one place a variant name turns into one of them.
VARIANT_CLASSES = frozenset(
    {
        "OptimizedBftBcReplica",
        "FastBftBcReplica",
        "OptimizedBftBcClient",
        "FastBftBcClient",
        "StrongBftBcClient",
    }
)


#: A harness that builds its own scheduler and network grows its own
#: run / settle / done-check loop next; build on ``SimHarness`` instead.
SIM_LOOP_CLASSES = frozenset({"Scheduler", "SimNetwork"})
SIM_LOOP_SITE = "repro.sim.runner"


#: The one module that knows the wire layout: the type table and the
#: derived ``to_wire`` / ``from_wire`` pair on ``Message``.
WIRE_SCHEMA_SITE = "repro.core.messages"
CODEC_METHODS = frozenset({"to_wire", "from_wire"})


#: The one package that issues stable-storage barriers.
BARRIER_SITE = "repro.storage"


#: Adversaries are state machines: their host (``Cluster.add_adversary``,
#: ``net.mux.drive``, the schedule explorer) owns the network and the clock.
ADVERSARY_PACKAGE = "repro.byzantine"
HOST_ATTRIBUTES = frozenset({"network", "scheduler"})
TIMER_CALLS = frozenset({"call_later", "call_at"})


#: The simulated network's endpoints: every client-side machine sits on
#: ``MachineHost`` and every replica on ``ReplicaHost``, so only
#: ``repro.sim.nodes`` registers, sends or unregisters on a ``network``.
NETWORK_SITE = "repro.sim.nodes"
NETWORK_CALLS = frozenset({"register", "unregister", "send"})


#: The modules that parse canonical bytes: the codec itself, the simulated
#: network's one decode per frame in flight, the socket envelope and the
#: stores.
DECODE_SITES = (
    "repro.encoding",
    "repro.net.simnet",
    "repro.net.envelope",
    "repro.storage",
)


#: The one module that spells the durable replica state: its declared
#: fields, their record tags and the private attributes behind the scalars.
DURABLE_SITE = "repro.core.persistence"
DURABLE_PRIVATES = frozenset({"_data", "_write_ts", "_pcert"})


#: The one module that spells what a variant is: its classes and its
#: declared protocol.  Everyone else asks ``Variant.protocol``.
VARIANT_SITE = "repro.core.config"
VARIANT_NAMES = frozenset({"base", "optimized", "strong", "fastpath"})


#: The one module that spells the fault vocabulary: each op's name,
#: parameters and spec shape.  Everyone else builds specs through it.
FAULT_SITE = "repro.sim.faults"


#: What takes statement bytes: those bytes come from a statement builder
#: (``repro.core.statements`` and its baseline and shard peers), never from
#: a tuple assembled at the call.
AUTH_CALLS = frozenset({"sign", "verify", "mac", "check"})


#: The one module that binds a reply's signature to its sender, and the
#: names a reply's sender goes by in a validator.
VOTE_SITE = "repro.core.phases"
SENDER_NAMES = frozenset({"sender", "src"})

#: The modules that mint request nonces: the one client front-end and the
#: adversary base.
NONCE_SITES = frozenset({"repro.core.client", "repro.byzantine.adversary"})


def _binds_signer_to_sender(node: ast.Compare) -> bool:
    """``x.signer != sender``, ``src == sig.signer`` and kin."""
    if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
        return False
    operands = (node.left, *node.comparators)
    return any(
        isinstance(item, ast.Attribute) and item.attr == "signer"
        for item in operands
    ) and any(
        isinstance(item, ast.Name) and item.id in SENDER_NAMES for item in operands
    )


def _compares_against(node: ast.Compare, names: frozenset[str]) -> bool:
    """``x == "strong"``, ``"base" != x``, ``x in ("optimized", ...)``."""
    for operand in (node.left, *node.comparators):
        items = getattr(operand, "elts", (operand,))
        if any(
            isinstance(item, ast.Constant) and item.value in names
            for item in items
        ):
            return True
    return False


def fault_ops(src: pathlib.Path) -> frozenset[str]:
    """The op names the ``FaultOp(...)`` declarations spell."""
    path = src / "repro" / "sim" / "faults.py"
    if not path.exists():
        return frozenset()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return frozenset(
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "FaultOp"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    )


def durable_tags(src: pathlib.Path) -> frozenset[str]:
    """The WAL record tags the ``DurableField(...)`` declarations spell."""
    path = src / "repro" / "core" / "persistence.py"
    if not path.exists():
        return frozenset()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return frozenset(
        tag.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "DurableField"
        and len(node.args) > 2
        and isinstance(node.args[2], ast.Tuple)
        for tag in node.args[2].elts
        if isinstance(tag, ast.Constant)
    )


def _may_decode(module: str) -> bool:
    return any((module + ".").startswith(site + ".") for site in DECODE_SITES)


def _reaches_the_network(call: ast.Call) -> bool:
    """``network.send(...)`` / ``self.network.register(...)`` and kin."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in NETWORK_CALLS:
        return False
    return getattr(func.value, "id", getattr(func.value, "attr", None)) == "network"


#: The socket front door: the one module that builds replica servers.
SERVER_SITE = "repro.cluster.deploy"
SERVER_CLASS = "ReplicaServer"


def _builds_replica_server(call: ast.Call) -> bool:
    """``ReplicaServer(...)`` or ``ReplicaServer.durable(...)``, however the
    class is reached (``asyncio_transport.ReplicaServer`` too)."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "durable":
        func = func.value
    return getattr(func, "id", getattr(func, "attr", None)) == SERVER_CLASS


def _may_name_variant_classes(module: str) -> bool:
    return module == "repro" or module.startswith("repro.core")


def layer_of(module: str) -> int | None:
    """The layer of ``module``, by longest matching prefix; None if foreign."""
    parts = module.split(".")
    for length in range(len(parts), 0, -1):
        prefix = ".".join(parts[:length])
        if prefix in LAYERS:
            return LAYERS[prefix]
    return None


def module_name_for(path: pathlib.Path, root: pathlib.Path) -> str:
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def export_table(tree: ast.Module) -> dict[str, str]:
    """The ``_EXPORTS`` table a package ``__init__`` declares: name -> module."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "_EXPORTS" for target in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            return {
                key.value: value.value
                for key, value in zip(node.value.keys, node.value.values)
                if isinstance(key, ast.Constant) and isinstance(value, ast.Constant)
            }
    return {}


def export_tables(src: pathlib.Path = SRC) -> dict[str, dict[str, str]]:
    """Every package's export table, by package name."""
    tables = {}
    for path in sorted(src.rglob("__init__.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        table = export_table(tree)
        if table:
            tables[module_name_for(path, src)] = table
    return tables


def module_path(module: str, src: pathlib.Path = SRC) -> pathlib.Path | None:
    """The source file of ``module`` under ``src``; None if there is none."""
    base = src.joinpath(*module.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def find_dangling_exports(src: pathlib.Path = SRC) -> list[tuple[str, str, str]]:
    """Export-table entries whose module has no source file:
    (package, name, module)."""
    return [
        (package, name, module)
        for package, table in export_tables(src).items()
        for name, module in table.items()
        if module_path(module, src) is None
    ]


def imports_of(path: pathlib.Path, importer: str) -> set[str]:
    """Every absolute ``repro.*`` module imported anywhere in ``path``,
    counting each export-table entry as an import of its module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: set[str] = set(export_table(tree).values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against the importing package.
                base = importer.split(".")
                if path.name != "__init__.py":
                    base = base[:-1]
                base = base[: len(base) - (node.level - 1)]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            if module.startswith("repro"):
                found.add(module)
    return found


def find_violations(src: pathlib.Path = SRC) -> list[tuple[str, str, int, int]]:
    """Scan the tree; return (importer, imported, importer_layer, imported_layer)."""
    violations: list[tuple[str, str, int, int]] = []
    for path in sorted(src.rglob("*.py")):
        importer = module_name_for(path, src)
        importer_layer = layer_of(importer)
        if importer_layer is None:
            continue
        for imported in sorted(imports_of(path, importer)):
            imported_layer = layer_of(imported)
            if imported_layer is None:
                continue
            if imported_layer > importer_layer:
                violations.append(
                    (importer, imported, importer_layer, imported_layer)
                )
    return violations


def find_duplication(src: pathlib.Path = SRC) -> list[tuple[str, int, str]]:
    """Scan the tree for regrown duplicates; return (module, line, what)."""
    found: list[tuple[str, int, str]] = []
    tags = durable_tags(src)
    ops = fault_ops(src)
    for path in sorted(src.rglob("*.py")):
        module = module_name_for(path, src)
        durable = module == DURABLE_SITE
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bases = {
            id(base)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for base in node.bases
        }
        adversary = module == ADVERSARY_PACKAGE or module.startswith(
            ADVERSARY_PACKAGE + "."
        )
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("set_")
                and node.name.endswith("_enabled")
            ):
                found.append(
                    (module, node.lineno, f"defines {node.name}, an ablation "
                     "switch; the mechanism is always on")
                )
            if adversary and (
                (isinstance(node, ast.Attribute) and node.attr in HOST_ATTRIBUTES)
                or (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in TIMER_CALLS
                )
            ):
                found.append(
                    (module, node.lineno, "adversary reaches its host; return "
                     "Sends and count retransmit ticks instead")
                )
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in SIM_LOOP_CLASSES and module != SIM_LOOP_SITE:
                    found.append(
                        (module, node.lineno, f"constructs {callee} outside SimHarness")
                    )
                if _builds_replica_server(node) and module != SERVER_SITE:
                    found.append(
                        (module, node.lineno, "builds a ReplicaServer outside "
                         + SERVER_SITE + "; start a ReplicaGroup from a spec")
                    )
                if _reaches_the_network(node) and module != NETWORK_SITE:
                    found.append(
                        (module, node.lineno, f"calls network.{callee} outside "
                         + NETWORK_SITE + "; host the machine on MachineHost")
                    )
                if callee == "canonical_decode" and not _may_decode(module):
                    found.append(
                        (module, node.lineno, "calls canonical_decode outside "
                         "the decode sites; receive the message from the host")
                    )
                if str(callee).endswith("_silent") and not durable:
                    found.append(
                        (module, node.lineno, f"calls {callee} outside "
                         + DURABLE_SITE + "; replay goes through the field table")
                    )
                if callee in AUTH_CALLS and any(
                    isinstance(arg, ast.Tuple) for arg in node.args
                ):
                    found.append(
                        (module, node.lineno, f"passes a tuple to {callee}; "
                         "sign the bytes a statement builder returns")
                    )
                if callee == "intern_encode":
                    found.append(
                        (module, node.lineno, "calls intern_encode; a statement "
                         "builder encodes once and splices cert.encoded")
                    )
                if callee == "NonceSource" and module not in NONCE_SITES:
                    found.append(
                        (module, node.lineno, "mints nonces outside the client "
                         "front-end; subclass BftBcClient")
                    )
                if callee == "WireType" and module != WIRE_SCHEMA_SITE:
                    found.append(
                        (module, node.lineno, "grows the wire type table outside "
                         + WIRE_SCHEMA_SITE)
                    )
                if callee == "fsync" and not (
                    module == BARRIER_SITE or module.startswith(BARRIER_SITE + ".")
                ):
                    found.append(
                        (module, node.lineno, "calls fsync outside "
                         + BARRIER_SITE + "; append inside store.group()")
                    )
            if (
                isinstance(node, ast.Compare)
                and module != VARIANT_SITE
                and _compares_against(node, VARIANT_NAMES)
            ):
                found.append(
                    (module, node.lineno, "compares against a variant name; "
                     "read the variant's declared Protocol")
                )
            if (
                isinstance(node, ast.Compare)
                and module != VOTE_SITE
                and _binds_signer_to_sender(node)
            ):
                found.append(
                    (module, node.lineno, "compares a reply's signer with its "
                     "sender; call repro.core.phases.signed_by")
                )
            if module != FAULT_SITE and (
                (
                    isinstance(node, ast.Dict)
                    and any(
                        isinstance(key, ast.Constant) and key.value == "op"
                        for key in node.keys
                    )
                )
                or (isinstance(node, ast.Compare) and _compares_against(node, ops))
            ):
                found.append(
                    (module, node.lineno, "spells a fault spec or op outside "
                     + FAULT_SITE + "; build it with FaultSchedule, read FAULT_OPS")
                )
            if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None)) == "Message"
                for base in node.bases
            ):
                found.extend(
                    (module, item.lineno, f"{node.name}.{item.name} is hand-written; "
                     "declare the field with wire_field")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in CODEC_METHODS
                )
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in tags
                and not durable
            ):
                found.append(
                    (module, node.lineno, f"spells WAL record tag {node.value!r} "
                     "outside " + DURABLE_SITE + "; declare it on a DurableField")
                )
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in DIAL_CALLS and module not in DIAL_SITES:
                found.append((module, node.lineno, "dials outside repro.net.mux"))
            elif name in LISTEN_CALLS and module not in LISTEN_SITES:
                found.append(
                    (module, node.lineno, "listens outside "
                     "repro.net.asyncio_transport; start a ReplicaGroup")
                )
            elif (
                name in DURABLE_PRIVATES
                and isinstance(node, ast.Attribute)
                and not durable
            ):
                found.append(
                    (module, node.lineno, f"reaches into durable state ({name}); "
                     "use the DurableReplicaState API")
                )
            elif (
                name in VARIANT_CLASSES
                and id(node) not in bases
                and not _may_name_variant_classes(module)
            ):
                found.append(
                    (module, node.lineno, f"names {name}; use the Variant registry")
                )
    return found


def main() -> int:
    violations = find_violations()
    duplication = find_duplication()
    dangling = find_dangling_exports()
    if violations:
        print("layering violations (importer -> imported, layers):")
        for importer, imported, il, tl in violations:
            print(f"  {importer} (L{il}) -> {imported} (L{tl})")
    if duplication:
        print(
            "duplication the variant registry / one endpoint / one harness / "
            "one wire schema / one barrier site / the sans-I/O adversary / "
            "the socket front door / one decode per frame / the durable field "
            "table / the always-on caches / the declared protocol / the fault "
            "catalogue / the statement builders / the phase engine's vote "
            "check / the one client front-end / the protocol listener "
            "replaced:"
        )
        for module, line, what in duplication:
            print(f"  {module}:{line} {what}")
    if dangling:
        print("export-table entries naming a missing module:")
        for package, name, module in dangling:
            print(f"  {package}: {name!r} -> {module}")
    if violations or duplication or dangling:
        return 1
    print("layering ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
