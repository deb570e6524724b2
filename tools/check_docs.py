#!/usr/bin/env python3
"""Fail on doc references that no longer resolve.

Four checks over the prose docs (``DOCS``), the first two on inline code
spans (text between single backticks, outside fenced blocks; a span may
wrap lines within a paragraph):

1. **Repo paths exist.**  A span that is a path with a directory part,
   ending in ``.py``, ``.md`` or ``.json`` (after stripping a ``:line`` or
   ``::test`` suffix), must name a file under the repo root, ``src/`` or
   ``src/repro/``.  A bare file name is prose, not a reference — except a
   bare ``bench_*.py`` in a heading, which must name a file in
   ``benchmarks/``.
2. **Dotted names resolve.**  A span that is a ``repro.``-dotted name (an
   optional trailing ``()`` is ignored) must import: its longest
   importable prefix is imported and the rest looked up attribute by
   attribute.
3. **Every numbered experiment has a section.**  A ``benchmarks/bench_*.py``
   whose docstring starts with an experiment number (``E19 — ...``) needs
   an EXPERIMENTS.md heading that starts with the same number and names
   the file.
4. **CLI commands parse.**  Every documented ``python -m repro ...``
   command, in an inline code span or on a line of a ``bash``, ``sh`` or
   ``console`` fence (``#`` comments stripped, backslash continuations
   joined, ``$`` prompts dropped), must be accepted by
   ``repro.__main__.build_parser()``.  Untagged fences are not commands.

Run:  python tools/check_docs.py
Exit status 0 when clean, 1 with a per-reference listing otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import pathlib
import re
import shlex
import sys
from typing import Iterable, Iterator

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.__main__ import build_parser  # noqa: E402

DOCS = ("README.md", "DESIGN.md", "PROTOCOL.md", "EXPERIMENTS.md", "CONTRIBUTING.md")

#: Where a doc's relative path may start.
PATH_ROOTS = (ROOT, ROOT / "src", ROOT / "src" / "repro")
BENCH_DIR = ROOT / "benchmarks"

_SPAN = re.compile(r"`([^`]+)`")
_PATH = re.compile(r"(?:[\w.-]+/)+[\w.-]+\.(?:py|md|json)")
_SUFFIX = re.compile(r"(?:::.*|:\d+(?:-\d+)?)$")
_DOTTED = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
_BENCH = re.compile(r"bench_\w+\.py")
_EXPERIMENT = re.compile(r"E\d+[a-z]?\b")
_SECTION = re.compile(r"#+\s+(E\d+[a-z]?)\b")
_COMMAND = re.compile(r"\bpython3?\s+-m\s+repro\b(.*)")
_SHELL_FENCES = ("bash", "sh", "console")
_COMMENT = re.compile(r"(?:^|\s)#.*$")
_SHELL_END = re.compile(r"\s(?:\||;|&&|\d?>)")


def _paragraphs(text: str) -> Iterator[tuple[int, str, bool]]:
    """``(first line number, text, is a heading)`` for each paragraph of
    prose outside fences; a heading line is a paragraph of its own."""
    fenced = False
    block: list[tuple[int, str]] = []
    for number, line in enumerate(text.splitlines() + [""], 1):
        fence = line.lstrip().startswith("```")
        fenced ^= fence
        heading = line.startswith("#") and not fenced and not fence
        if fence or fenced or heading or not line.strip():
            if block:
                yield block[0][0], "\n".join(row for _, row in block), False
                block = []
            if heading:
                yield number, line, True
            continue
        block.append((number, line))


def code_spans(text: str) -> Iterator[tuple[int, str, bool]]:
    """``(line number, span, in a heading)`` for every inline code span
    outside fences; a wrapped span's whitespace collapses to one space."""
    for start, paragraph, heading in _paragraphs(text):
        for match in _SPAN.finditer(paragraph):
            number = start + paragraph.count("\n", 0, match.start())
            yield number, " ".join(match.group(1).split()), heading


def shell_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, command line)`` for each logical line of a ``bash``,
    ``sh`` or ``console`` fence."""
    tag = None  # the open fence's tag; None outside fences
    start, pending = 0, ""
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip().startswith("```"):
            tag = line.strip()[3:].strip() if tag is None else None
            continue
        if tag not in _SHELL_FENCES:
            continue
        line = _COMMENT.sub("", line).rstrip()
        if not pending:
            start, line = number, line.strip().removeprefix("$ ")
        pending += line
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        if pending.strip():
            yield start, pending.strip()
        pending = ""


def command_parses(command: str) -> bool:
    """Whether ``build_parser()`` accepts the arguments after
    ``python -m repro`` in ``command`` (``--help`` counts as accepted)."""
    rest = _SHELL_END.split(_COMMAND.search(command).group(1), 1)[0]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            build_parser().parse_args(shlex.split(rest))
        except SystemExit as exc:
            return exc.code == 0
        except ValueError:  # unbalanced quotes
            return False
    return True


def path_exists(reference: str, roots: Iterable[pathlib.Path] = PATH_ROOTS) -> bool:
    return any((root / reference).exists() for root in roots)


def name_resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            try:
                target = getattr(target, attr)
            except AttributeError:
                return False
        return True
    return False


def find_stale(
    docs: Iterable[pathlib.Path] = tuple(ROOT / name for name in DOCS),
    roots: Iterable[pathlib.Path] = PATH_ROOTS,
    bench_dir: pathlib.Path = BENCH_DIR,
) -> list[tuple[str, int, str]]:
    """``(doc, line, reference)`` for every reference that does not resolve
    and every documented command the CLI parser rejects."""
    roots = tuple(roots)
    stale = []
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        for number, span, heading in code_spans(text):
            path = _SUFFIX.sub("", span)
            if _COMMAND.search(span):
                ok = command_parses(span)
            elif _PATH.fullmatch(path):
                ok = path_exists(path.removeprefix("./"), roots)
            elif heading and _BENCH.fullmatch(path):
                ok = (bench_dir / path).exists()
            elif _DOTTED.fullmatch(span.removesuffix("()")):
                ok = name_resolves(span.removesuffix("()"))
            else:
                continue
            if not ok:
                stale.append((doc.name, number, span))
        stale.extend(
            (doc.name, number, line)
            for number, line in shell_lines(text)
            if _COMMAND.search(line) and not command_parses(line)
        )
    return stale


def missing_experiments(
    experiments: pathlib.Path = ROOT / "EXPERIMENTS.md",
    bench_dir: pathlib.Path = BENCH_DIR,
) -> list[tuple[str, str]]:
    """``(benchmark, experiment)`` for every ``bench_*.py`` whose docstring
    starts with an experiment number that no EXPERIMENTS heading gives it."""
    sections: set[tuple[str, str]] = set()
    for line in experiments.read_text(encoding="utf-8").splitlines():
        section = _SECTION.match(line)
        if section is None:
            continue
        for match in _SPAN.finditer(line):
            name = pathlib.PurePath(_SUFFIX.sub("", match.group(1))).name
            sections.add((section.group(1), name))
    missing = []
    for bench in sorted(bench_dir.glob("bench_*.py")):
        doc = ast.get_docstring(ast.parse(bench.read_text(encoding="utf-8")))
        number = _EXPERIMENT.match(doc or "")
        if number is not None and (number.group(), bench.name) not in sections:
            missing.append((bench.name, number.group()))
    return missing


def main() -> int:
    stale = find_stale()
    for doc, number, span in stale:
        verdict = (
            "is rejected by the CLI parser"
            if _COMMAND.search(span)
            else "does not resolve"
        )
        print(f"{doc}:{number}: `{span}` {verdict}")
    missing = missing_experiments()
    for bench, number in missing:
        print(f"EXPERIMENTS.md: no {number} heading names {bench}")
    if stale or missing:
        return 1
    print("docs ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
