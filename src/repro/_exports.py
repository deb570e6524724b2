"""Lazy package facades: each public name is declared once, by its module.

A package ``__init__`` declares its public names as one table of
name -> defining module and hands it to :func:`lazy_exports`, which derives
the package's ``__all__``, its PEP 562 module ``__getattr__`` and its
``__dir__`` from that table.  A name's module is imported on the name's
first access and the value is then cached in the package namespace, so
``import repro`` (or ``import repro.core``) loads nothing it is not asked
for, and ``from repro import X`` loads only what ``X`` needs.

``tools/check_layering.py`` reads every ``_EXPORTS`` table as the imports
it stands for, and ``tools/check_public_api.py`` checks without importing
that every entry names a module that defines the name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, str], *own: str
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``.

    ``own`` names values the package defines itself (``__version__``);
    they lead ``__all__``, and the table's names follow in its order.
    """
    namespace = vars(sys.modules[package])
    exported = [*own, *table]

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exported})

    return exported, __getattr__, __dir__
