"""SIM2xx -- cache-key completeness.

The result cache serves a stored run whenever a plan's ``cache_key()``
matches.  A plan field that does not feed the key is therefore a
*silent wrong-results* bug: two plans differing only in that field
share a key, and one of them gets the other's numbers.  Historically
this class of bug was papered over by remembering to bump
``CACHE_VERSION``; these rules machine-check the invariant instead by
cross-checking each plan-style dataclass's declared fields against the
attribute reads inside its ``cache_key`` method.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..context import FileContext
from ..findings import Finding
from ..registry import register

#: Methods treated as cache-key constructors.
_KEY_METHODS = ("cache_key",)

#: Calls that serialize *every* field at once; a key built through one
#: of these is complete by construction.
_WHOLE_OBJECT_CALLS = {"asdict", "astuple", "fields"}


def _key_method(node: ast.ClassDef) -> Optional[ast.FunctionDef]:
    for stmt in node.body:
        if (isinstance(stmt, ast.FunctionDef)
                and stmt.name in _KEY_METHODS):
            return stmt
    return None


def _declared_fields(node: ast.ClassDef) -> List[ast.AnnAssign]:
    """Annotated instance fields, skipping ClassVar and private names."""
    fields = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        if stmt.target.id.startswith("_"):
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append(stmt)
    return fields


def _self_reads(func: ast.FunctionDef) -> Set[str]:
    reads: Set[str] = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            reads.add(node.attr)
    return reads


def _serializes_whole_self(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = ""
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name in _WHOLE_OBJECT_CALLS and any(
                isinstance(arg, ast.Name) and arg.id == "self"
                for arg in node.args):
            return True
    return False


def _references_name(func: ast.FunctionDef, name: str) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


def _module_constants(tree: ast.AST) -> Set[str]:
    constants: Set[str] = set()
    for stmt in getattr(tree, "body", []):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    constants.add(target.id)
        elif (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            constants.add(stmt.target.id)
    return constants


@register("SIM201", "every plan field must feed cache_key()")
def check_cache_key_fields(ctx: FileContext) -> Iterator[Finding]:
    """Cross-check dataclass fields against ``cache_key`` reads.

    Fires once per declared field that ``cache_key`` never reads
    (directly as ``self.field`` or via ``asdict(self)``-style whole
    object serialization).  Adding an ``ExperimentPlan`` field without
    extending the key is exactly the bug this catches.
    """
    for node in ctx.nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        key_func = _key_method(node)
        if key_func is None:
            continue
        fields = _declared_fields(node)
        if not fields or _serializes_whole_self(key_func):
            continue
        reads = _self_reads(key_func)
        for field in fields:
            field_name = field.target.id
            if field_name in reads:
                continue
            yield Finding(
                code="SIM201",
                message=(
                    f"field '{field_name}' of {node.name} does not "
                    f"feed {node.name}.{key_func.name}(); plans "
                    f"differing only in '{field_name}' would share a "
                    f"cache entry and serve each other's results"
                ),
                path=ctx.rel,
                line=field.lineno,
                col=field.col_offset,
            )


@register("SIM202", "cache_key() must pin the module's CACHE_VERSION")
def check_cache_key_version(ctx: FileContext) -> Iterator[Finding]:
    """A key that ignores ``CACHE_VERSION`` defeats version bumps.

    If the module defines a ``CACHE_VERSION`` constant, every
    ``cache_key`` in it must reference the constant, otherwise
    simulator changes cannot invalidate stale entries.
    """
    if "CACHE_VERSION" not in _module_constants(ctx.tree):
        return
    for node in ctx.nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        key_func = _key_method(node)
        if key_func is None:
            continue
        if _references_name(key_func, "CACHE_VERSION"):
            continue
        yield Finding(
            code="SIM202",
            message=(
                f"{node.name}.{key_func.name}() does not reference "
                f"CACHE_VERSION; bumping the version would no longer "
                f"invalidate this class's cached results"
            ),
            path=ctx.rel,
            line=key_func.lineno,
            col=key_func.col_offset,
        )
