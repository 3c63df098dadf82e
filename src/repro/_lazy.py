"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package declares its public names once, as relative imports inside an
``if TYPE_CHECKING:`` block, so linters, type checkers and readers see
ordinary imports, and binds the hooks :func:`attach` returns::

    if TYPE_CHECKING:
        from .config import ProcessorConfig

    __getattr__, __dir__ = _lazy.attach(__name__)

Importing the package then runs none of its submodules.  The first read
of a name imports the submodule that defines it and stores the value in
the package namespace, so later reads are plain attribute lookups.  A
command therefore loads only the modules whose names it touches.
"""

from __future__ import annotations

import ast
import importlib
import sys
from typing import Callable, Dict, List, Tuple


def _declared_exports(package: str) -> Dict[str, Tuple[str, str]]:
    """``name -> (submodule, attribute)`` for every relative import in
    the top-level ``if TYPE_CHECKING:`` blocks of ``package``'s source."""
    spec = sys.modules[package].__spec__
    source = spec.loader.get_source(package)
    exports: Dict[str, Tuple[str, str]] = {}
    for node in ast.parse(source, spec.origin).body:
        if not (isinstance(node, ast.If)
                and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.ImportFrom) and stmt.level == 1
                    and stmt.module):
                for alias in stmt.names:
                    exports[alias.asname or alias.name] = (stmt.module,
                                                           alias.name)
    return exports


def attach(package: str) -> Tuple[Callable[[str], object],
                                  Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks of ``package``."""
    module = sys.modules[package]
    exports = _declared_exports(package)

    def __getattr__(name: str) -> object:
        try:
            submodule, attribute = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f".{submodule}", package),
                        attribute)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(exports))

    return __getattr__, __dir__
