#!/usr/bin/env python3
"""Generate docs/API.md from the public API's signatures and docstrings.

Walks the ``repro`` packages, collects every name exported via ``__all__``,
and emits a markdown reference: one section per module, one entry per class
(with public methods) or function, using the first paragraph of each
docstring.

Also rewrites the "Wire format" table of PROTOCOL.md (between its two
marker comments) from the message declarations, its durable-record table
from the ``DurableField`` declarations, and its per-variant phase table
from each ``Variant.protocol`` declaration, so each documented layout is
the one the code is derived from.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

MODULES = [
    "repro",
    "repro.errors",
    "repro.core.timestamp",
    "repro.core.quorum",
    "repro.core.certificates",
    "repro.core.messages",
    "repro.core.config",
    "repro.core.statements",
    "repro.core.persistence",
    "repro.core.verification",
    "repro.core.phases",
    "repro.core.replica",
    "repro.core.operations",
    "repro.core.optimized_operations",
    "repro.core.strong_operations",
    "repro.core.fast_operations",
    "repro.core.fast_replica",
    "repro.core.repair",
    "repro.core.client",
    "repro.core.multiobject",
    "repro.baselines.statements",
    "repro.baselines.messages",
    "repro.baselines.bqs",
    "repro.baselines.phalanx",
    "repro.baselines.runner",
    "repro.byzantine.adversary",
    "repro.byzantine.clients",
    "repro.byzantine.replicas",
    "repro.byzantine.baseline_attacks",
    "repro.spec.histories",
    "repro.spec.linearizability",
    "repro.spec.bft_linearizability",
    "repro.spec.invariants",
    "repro.sim.scheduler",
    "repro.sim.nodes",
    "repro.sim.multi_node",
    "repro.sim.runner",
    "repro.sim.workload",
    "repro.sim.faults",
    "repro.sim.metrics",
    "repro.sim.recorder",
    "repro.sim.tracing",
    "repro.sim.explorer",
    "repro.sim.shard_cluster",
    "repro.shard.ring",
    "repro.shard.directory",
    "repro.shard.messages",
    "repro.shard.replica",
    "repro.shard.router",
    "repro.shard.reconfig",
    "repro.storage.base",
    "repro.storage.integrity",
    "repro.storage.filelog",
    "repro.net.simnet",
    "repro.net.asyncio_transport",
    "repro.net.envelope",
    "repro.net.mux",
    "repro.net.chaos_proxy",
    "repro.net.shard_transport",
    "repro.chaos.plan",
    "repro.chaos.oracles",
    "repro.chaos.engine",
    "repro.chaos.minimize",
    "repro.chaos.artifact",
    "repro.chaos.shard",
    "repro.chaos.tcp",
    "repro.load.profile",
    "repro.load.generator",
    "repro.load.harness",
    "repro.load.tcp",
    "repro.cluster.spec",
    "repro.cluster.process",
    "repro.cluster.deploy",
    "repro.crypto.signatures",
    "repro.crypto.rsa",
    "repro.crypto.keys",
    "repro.crypto.hashing",
    "repro.crypto.nonces",
    "repro.crypto.authenticators",
    "repro.crypto.commitments",
    "repro.encoding.canonical",
    "repro.encoding.interning",
    "repro.encoding.codec",
    "repro.analysis.costs",
    "repro.analysis.report",
    "repro.obs.spans",
    "repro.obs.histograms",
    "repro.obs.instrumentation",
    "repro.obs.export",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return paragraph


def signature_of(obj) -> str:
    import re

    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    # Function/object default reprs embed memory addresses; keep the name.
    return re.sub(r"<function (\w+) at 0x[0-9a-f]+>", r"\1", text)


def document_class(cls) -> list[str]:
    lines = [f"### class `{cls.__name__}`", "", first_paragraph(cls), ""]
    methods = []
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if inspect.isfunction(member) or inspect.ismethod(member):
            if member.__qualname__.split(".")[0] != cls.__name__:
                continue  # inherited
            methods.append((name, member))
    if methods:
        for name, member in methods:
            summary = first_paragraph(member)
            lines.append(f"- `{name}{signature_of(member)}`"
                         + (f" — {summary}" if summary else ""))
        lines.append("")
    return lines


def document_module(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if not exported:
        return []
    lines = [f"## `{module_name}`", "", first_paragraph(module), ""]
    for name in exported:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            lines.extend(document_class(obj))
        elif inspect.isfunction(obj):
            summary = first_paragraph(obj)
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            if summary:
                lines.append(summary)
                lines.append("")
        else:
            lines.append(f"### `{name}`")
            lines.append("")
            if isinstance(obj, (set, frozenset)):
                # Set reprs follow per-process hash order; sort for a
                # deterministic document.
                body = ", ".join(repr(item) for item in sorted(obj, key=repr))
                rendered = f"{type(obj).__name__}({{{body}}})"
            else:
                rendered = repr(obj)
            lines.append(f"Constant: `{rendered}`"[:120])
            lines.append("")
    return lines


WIRE_BEGIN = "<!-- wire-format:begin (generated by tools/gen_api_docs.py) -->"
WIRE_END = "<!-- wire-format:end -->"


def wire_format_table() -> list[str]:
    """One row per declared field of every registered message kind."""
    from repro.core.messages import registered_messages

    lines = ["| kind | field | wire key | type |", "|---|---|---|---|"]
    for kind, cls in registered_messages().items():
        for field in cls.WIRE_FIELDS:
            wire_type = field.wire_type.name + (
                ", may be absent" if field.absent_ok else ""
            )
            lines.append(
                f"| `{kind}` | `{cls.__name__}.{field.name}` | `{field.key}` "
                f"| {wire_type} |"
            )
    return lines


DURABLE_BEGIN = "<!-- durable-records:begin (generated by tools/gen_api_docs.py) -->"
DURABLE_END = "<!-- durable-records:end -->"


def durable_record_table() -> list[str]:
    """One row per declared durable replica field."""
    from repro.core.persistence import DURABLE_FIELDS

    lines = [
        "| field | record tags | replay rule | entry arity | fingerprint "
        "| on repair | budget |",
        "|---|---|---|---|---|---|---|",
    ]
    for field in DURABLE_FIELDS:
        tags = ", ".join(f"`{tag}`" for tag in field.tags) or "—"
        fingerprint = (
            "reduced (`digest`)" if field.digest else "yes" if field.fingerprinted
            else "exact only"
        )
        lines.append(
            f"| `{field.name}` | {tags} | {field.rule} "
            f"| {field.arity or '—'} | {fingerprint} "
            f"| {'kept from own log' if field.local else 'from peer'} "
            f"| {'spillable' if field.spillable else '—'} |"
        )
    return lines


PHASES_BEGIN = "<!-- protocol-phases:begin (generated by tools/gen_api_docs.py) -->"
PHASES_END = "<!-- protocol-phases:end -->"


def _count(rows: int, singles: int = 0) -> str:
    """A MAC count at ``n`` replicas: ``rows`` rows of n plus ``singles``."""
    terms = ([f"{rows}n" if rows > 1 else "n"] if rows else []) + (
        [str(singles)] if singles else []
    )
    return " + ".join(terms) or "0"


def protocol_phase_table() -> list[str]:
    """One row per declared phase of every variant's write and read, then
    one row of bounds per variant."""
    from repro.core.config import Carry, Variant

    def carries(items) -> str:
        return ", ".join(item.value for item in items) or "—"

    lines = [
        "| variant | operation | request → reply | request carries "
        "| reply carries | client sigs | sigs per reply | client MACs "
        "| MACs per reply | WAL records |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for variant in Variant:
        protocol = variant.protocol
        for operation, phases in (
            ("write", protocol.write),
            ("read", protocol.read),
        ):
            for phase in phases:
                request, reply = phase.request_carries, phase.reply_carries
                client_macs = _count(request.count(Carry.MAC_ROW))
                reply_macs = _count(
                    reply.count(Carry.ACK_ROW), reply.count(Carry.ENVELOPE)
                )
                lines.append(
                    f"| `{variant.value}` | {operation} "
                    f"| `{phase.request.KIND}` → `{phase.reply.KIND}` "
                    f"| {carries(request)} | {carries(reply)} "
                    f"| {phase.client_signs} | {phase.replica_signs} "
                    f"| {client_macs} | {reply_macs} | {phase.wal_records} |"
                )
    lines += [
        "",
        "| variant | worst-case write | lurking bound `max_b` "
        "| prepared per client (Lemma 1) | fast path |",
        "|---|---|---|---|---|",
    ]
    for variant in Variant:
        protocol = variant.protocol
        worst = " → ".join(
            f"`{phase.request.KIND}`" for phase in protocol.worst_write
        )
        lines.append(
            f"| `{variant.value}` | {worst} | {protocol.max_b} "
            f"| {protocol.max_prepared} | {'yes' if protocol.fast_path else 'no'} |"
        )
    return lines


def write_generated_tables(root: pathlib.Path) -> None:
    """Rewrite each generated table of PROTOCOL.md between its markers."""
    path = root / "PROTOCOL.md"
    text = path.read_text(encoding="utf-8")
    for begin, end, rows in (
        (WIRE_BEGIN, WIRE_END, wire_format_table()),
        (DURABLE_BEGIN, DURABLE_END, durable_record_table()),
        (PHASES_BEGIN, PHASES_END, protocol_phase_table()),
    ):
        head, _, rest = text.partition(begin)
        _, _, tail = rest.partition(end)
        table = "\n".join(rows)
        text = f"{head}{begin}\n{table}\n{end}{tail}"
    path.write_text(text, encoding="utf-8")


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    out = root / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    lines = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — do not edit by hand.",
        "Every entry links back to the module's docstring; see PROTOCOL.md",
        "for the guided walkthrough and DESIGN.md for the system inventory.",
        "",
    ]
    for module_name in MODULES:
        lines.extend(document_module(module_name))
    out.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {out} ({len(lines)} lines)")
    write_generated_tables(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
