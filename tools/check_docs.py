#!/usr/bin/env python3
"""Fail on doc references that no longer resolve.

Three checks over the prose docs (``DOCS``), the first two on inline code
spans (text between single backticks, outside fenced blocks):

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

Run:  python tools/check_docs.py
Exit status 0 when clean, 1 with a per-reference listing otherwise.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
import sys
from typing import Iterable, Iterator

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DOCS = ("README.md", "DESIGN.md", "PROTOCOL.md", "EXPERIMENTS.md", "CONTRIBUTING.md")

#: Where a doc's relative path may start.
PATH_ROOTS = (ROOT, ROOT / "src", ROOT / "src" / "repro")
BENCH_DIR = ROOT / "benchmarks"

_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"(?:[\w.-]+/)+[\w.-]+\.(?:py|md|json)")
_SUFFIX = re.compile(r"(?:::.*|:\d+(?:-\d+)?)$")
_DOTTED = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
_BENCH = re.compile(r"bench_\w+\.py")
_EXPERIMENT = re.compile(r"E\d+[a-z]?\b")
_SECTION = re.compile(r"#+\s+(E\d+[a-z]?)\b")


def code_spans(text: str) -> Iterator[tuple[int, str, bool]]:
    """``(line number, span, in a heading)`` for every inline code span
    outside fences."""
    fenced = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            heading = line.startswith("#")
            for match in _SPAN.finditer(line):
                yield number, match.group(1).strip(), heading


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
    """``(doc, line, reference)`` for every reference that does not resolve."""
    roots = tuple(roots)
    stale = []
    for doc in docs:
        for number, span, heading in code_spans(doc.read_text(encoding="utf-8")):
            path = _SUFFIX.sub("", span)
            if _PATH.fullmatch(path):
                ok = path_exists(path.removeprefix("./"), roots)
            elif heading and _BENCH.fullmatch(path):
                ok = (bench_dir / path).exists()
            elif _DOTTED.fullmatch(span.removesuffix("()")):
                ok = name_resolves(span.removesuffix("()"))
            else:
                continue
            if not ok:
                stale.append((doc.name, number, span))
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
        print(f"{doc}:{number}: `{span}` does not resolve")
    missing = missing_experiments()
    for bench, number in missing:
        print(f"EXPERIMENTS.md: no {number} heading names {bench}")
    if stale or missing:
        return 1
    print("docs ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
