"""Shared AST utilities for the rule modules."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set


@dataclass
class ImportMap:
    """How a module's imports bind local names.

    ``modules`` maps a local name to the dotted module it denotes
    (``import numpy as np`` -> ``{"np": "numpy"}``); ``members`` maps a
    local name to ``"module.attr"`` for from-imports
    (``from random import randint as ri`` -> ``{"ri": "random.randint"}``).
    """

    modules: Dict[str, str] = field(default_factory=dict)
    members: Dict[str, str] = field(default_factory=dict)


def collect_imports(nodes: Iterable[ast.AST]) -> ImportMap:
    """The import bindings among ``nodes`` (a file's ``ctx.nodes``)."""
    imports = ImportMap()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                # ``import numpy.random`` binds ``numpy``; with an
                # asname it binds the full dotted module.
                target = alias.name if alias.asname else local
                imports.modules[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never hide stdlib modules
            for alias in node.names:
                local = alias.asname or alias.name
                imports.members[local] = f"{node.module}.{alias.name}"
    return imports


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_target(func: ast.AST, imports: ImportMap
                        ) -> Optional[str]:
    """The fully-qualified dotted target of a call, if resolvable.

    ``random.randint`` with ``import random`` -> ``random.randint``;
    ``ri`` with ``from random import randint as ri`` ->
    ``random.randint``; ``np.random.rand`` with ``import numpy as np``
    -> ``numpy.random.rand``.
    """
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in imports.members:
        resolved = imports.members[head]
        return f"{resolved}.{rest}" if rest else resolved
    if head in imports.modules:
        resolved = imports.modules[head]
        return f"{resolved}.{rest}" if rest else resolved
    return dotted


def iteration_targets(nodes: Iterable[ast.AST]):
    """Yield every expression a ``for`` or comprehension iterates.

    Yields ``(iter_node, anchor_node, comp_node)`` triples; the anchor
    carries the line/col to report, ``comp_node`` is the enclosing
    comprehension (``None`` for statement loops).
    """
    for node in nodes:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node, None
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter, gen.iter, node


def is_call_to(node: ast.AST, names: Set[str]) -> bool:
    """True for ``name(...)`` where ``name`` is a plain builtin name."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in names)
