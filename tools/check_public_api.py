#!/usr/bin/env python3
"""Enforce the public-API boundary introduced by the ``repro`` facade.

Four checks, all driven by the same sources of truth:

1. **Examples use the facade only.**  Every ``examples/*.py`` file may
   import ``repro`` itself and nothing deeper — the examples are the
   public-API showcase, so a deep import there is a documentation bug.
2. **Tests and benchmarks stay on documented modules.**  ``tests/*.py``
   and ``benchmarks/*.py`` may import only modules documented by
   ``tools/gen_api_docs.py`` (its ``MODULES`` list), their ancestor
   packages, or ``repro.__main__`` (the CLI under test).
3. **``repro.__all__`` matches docs/API.md.**  The names exported from
   the facade must be exactly the names documented in the ``## `repro```
   section — if the facade grows or shrinks, the docs must be
   regenerated in the same change.
4. **Every export-table entry is defined where it says.**  Each package's
   ``_EXPORTS`` table (name -> defining module, read without importing
   anything) must name a module under ``src/repro`` whose top level
   defines that name, so a typo fails here instead of at first access.

Run:  python tools/check_public_api.py
Exit status 0 when clean, 1 with a per-violation listing otherwise.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from check_layering import SRC, export_tables, module_path  # noqa: E402
from gen_api_docs import MODULES  # noqa: E402


def repro_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """Return ``(lineno, module_path)`` for every repro import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and (
                module == "repro" or module.startswith("repro.")
            ):
                found.append((node.lineno, module))
    return found


def top_level_names(path: pathlib.Path) -> set[str]:
    """Names ``path`` defines at module level (def, class, assignment)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                leaf.id
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            )
    return names


def undefined_exports(src: pathlib.Path = SRC) -> list[str]:
    """Export-table entries whose module is missing or does not define the
    name, checked statically."""
    problems = []
    defined: dict[str, set[str]] = {}
    for package, table in export_tables(src).items():
        for name, module in table.items():
            if module not in defined:
                path = module_path(module, src)
                defined[module] = top_level_names(path) if path else set()
            if name not in defined[module]:
                problems.append(
                    f"{package}._EXPORTS: {name!r} -> {module!r}, which does "
                    "not define it"
                )
    return problems


def allowed_modules() -> set[str]:
    """Documented modules, their ancestor packages, and the CLI module."""
    allowed = {"repro.__main__"}
    for module in MODULES:
        parts = module.split(".")
        for stop in range(1, len(parts) + 1):
            allowed.add(".".join(parts[:stop]))
    return allowed


def documented_facade_names() -> set[str]:
    """Names under the ``## `repro``` section of docs/API.md."""
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    match = re.search(
        r"^## `repro`\n(.*?)(?=^## `|\Z)", text, re.MULTILINE | re.DOTALL
    )
    if match is None:
        return set()
    names = set()
    for heading in re.finditer(
        r"^### (?:class )?`([A-Za-z_]\w*)", match.group(1), re.MULTILINE
    ):
        names.add(heading.group(1))
    return names


def main() -> int:
    problems: list[str] = []

    for path in sorted((ROOT / "examples").glob("*.py")):
        for lineno, module in repro_imports(path):
            if module != "repro":
                problems.append(
                    f"{path.relative_to(ROOT)}:{lineno}: examples must import "
                    f"from the `repro` facade only, not {module!r}"
                )

    allowed = allowed_modules()
    for directory in ("tests", "benchmarks"):
        for path in sorted((ROOT / directory).glob("*.py")):
            for lineno, module in repro_imports(path):
                if module not in allowed:
                    problems.append(
                        f"{path.relative_to(ROOT)}:{lineno}: {module!r} is not "
                        "a documented public module (tools/gen_api_docs.py)"
                    )

    problems.extend(undefined_exports())

    import repro

    exported = set(repro.__all__)
    documented = documented_facade_names()
    for name in sorted(exported - documented):
        problems.append(
            f"repro.__all__ exports {name!r} but docs/API.md does not "
            "document it; run tools/gen_api_docs.py"
        )
    for name in sorted(documented - exported):
        problems.append(
            f"docs/API.md documents {name!r} under `repro` but it is not in "
            "repro.__all__; run tools/gen_api_docs.py"
        )

    if problems:
        print("\n".join(problems))
        print(f"\n{len(problems)} public-API violation(s)")
        return 1
    print(
        f"public API clean: {len(exported)} facade names, "
        f"{len(allowed)} documented modules"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
