"""Whole-program context: linking per-module facts into graphs.

Takes every file's :class:`ModuleFacts` and builds:

* the **import graph** (module -> modules it imports);
* a **project symbol table** mapping qualified names
  (``repro.service.jobs.JobStore.save``) to their defining file and
  :class:`FunctionInfo` record;
* an approximate **call graph**: every recorded call site resolved to
  a qualified project symbol where the receiver is provable (plain
  names and dotted paths through the import maps, ``self.method()``,
  ``self.<attr>.method()`` through recorded attribute constructors,
  and ``var.method()`` through local constructor assignments).

Resolution is deliberately *under*-approximate -- an unresolvable
receiver produces no edge rather than a guessed one -- so project
rules built on it err toward silence, with one exception: name-matched
blocking sinks (``write_text`` and friends), where the method name
alone is evidence enough.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .facts import ModuleFacts

#: Longest call chain :meth:`ProjectContext.reachable_sync` follows.
_MAX_CHASE_DEPTH = 12


class ProjectContext:
    """Everything a project rule may ask about the linted program."""

    def __init__(self) -> None:
        #: rel path -> facts
        self.facts: Dict[str, ModuleFacts] = {}
        #: dotted module -> rel path
        self.modules: Dict[str, str] = {}
        #: qualified function name -> (rel, function record)
        self.symbols: Dict[str, Tuple[str, dict]] = {}
        #: qualified class name -> rel
        self.class_symbols: Dict[str, str] = {}
        #: module -> set of imported modules (project-internal only)
        self.import_graph: Dict[str, Set[str]] = {}
        #: caller qualified name -> resolved call edges
        self.call_graph: Dict[str, List[dict]] = {}

    # -- construction ----------------------------------------------------

    def add_module(self, facts: ModuleFacts) -> None:
        self.facts[facts.rel] = facts
        self.modules[facts.module] = facts.rel
        for func in facts.functions:
            self.symbols[f"{facts.module}.{func['qual']}"] = (
                facts.rel, func)
        for cls in facts.classes:
            self.class_symbols[f"{facts.module}.{cls}"] = facts.rel

    def link(self) -> None:
        """Build the graphs; call after every module is added."""
        for facts in self.facts.values():
            deps: Set[str] = set()
            for target in facts.import_modules.values():
                deps.update(self._project_module_prefixes(target))
            for target in facts.import_members.values():
                module = target.rsplit(".", 1)[0]
                deps.update(self._project_module_prefixes(module))
            self.import_graph[facts.module] = deps
            for call in facts.calls:
                resolved = self.resolve_call(facts, call)
                if resolved is None:
                    continue
                edge = dict(call)
                edge["resolved"] = resolved
                self.call_graph.setdefault(
                    call["caller"] and f"{facts.module}.{call['caller']}"
                    or facts.module, []).append(edge)

    def _project_module_prefixes(self, dotted: str) -> Iterator[str]:
        """Known project modules reachable from an import target.

        ``repro.service.jobs.JobStore`` matches the ``repro.service.
        jobs`` module; plain ``os`` matches nothing.
        """
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                yield candidate
                return

    # -- resolution ------------------------------------------------------

    def resolve_call(self, facts: ModuleFacts,
                     call: dict) -> Optional[str]:
        """Qualified project symbol a call site targets, if provable."""
        kind = call["kind"]
        if kind == "dotted":
            return self._resolve_dotted_target(facts, call["target"])
        if kind == "self":
            caller_cls = call["caller"].split(".")[0]
            qual = f"{facts.module}.{caller_cls}.{call['attr']}"
            return qual if qual in self.symbols else None
        if kind == "selfattr":
            caller_cls = call["caller"].split(".")[0]
            attr_types = facts.self_attr_types.get(caller_cls, {})
            cls_dotted = attr_types.get(call["obj"])
            if cls_dotted is None:
                return None
            return self._method_of(cls_dotted, call["attr"])
        if kind == "class":
            return self._method_of(call["target"], call["attr"])
        return None

    def _resolve_dotted_target(self, facts: ModuleFacts,
                               dotted: str) -> Optional[str]:
        # Exact function (module-level or Class.method spelling).
        if dotted in self.symbols:
            return dotted
        # Same-module plain name.
        local = f"{facts.module}.{dotted}"
        if local in self.symbols:
            return local
        # Constructor: Class -> Class.__init__ if present, else the
        # class itself (so receiver typing still works upstream).
        if dotted in self.class_symbols:
            init = f"{dotted}.__init__"
            return init if init in self.symbols else dotted
        if local in self.class_symbols:
            init = f"{local}.__init__"
            return init if init in self.symbols else local
        return None

    def _method_of(self, cls_dotted: str,
                   method: str) -> Optional[str]:
        qual = f"{cls_dotted}.{method}"
        return qual if qual in self.symbols else None

    # -- queries ---------------------------------------------------------

    def function(self, qual: str) -> Optional[dict]:
        entry = self.symbols.get(qual)
        return entry[1] if entry else None

    def rel_of(self, qual: str) -> Optional[str]:
        entry = self.symbols.get(qual)
        return entry[0] if entry else None

    def is_async(self, qual: str) -> bool:
        func = self.function(qual)
        return bool(func and func["is_async"])

    def calls_from(self, qual: str) -> List[dict]:
        return self.call_graph.get(qual, [])

    def callers_of(self, qual: str) -> List[Tuple[str, dict]]:
        """(caller qualified name, edge) pairs targeting ``qual``."""
        found = []
        for caller, edges in self.call_graph.items():
            for edge in edges:
                if edge["resolved"] == qual:
                    found.append((caller, edge))
        return found

    def reachable_sync(self, start: str) -> Iterator[Tuple[str, List[str]]]:
        """(function, chain) pairs reachable via sync project calls.

        Breadth-first from ``start`` (excluded), never descending into
        ``async def`` targets (they are analyzed as their own roots)
        and bounded to keep pathological graphs cheap.
        """
        seen: Set[str] = {start}
        queue = deque([(start, [start])])
        while queue:
            current, chain = queue.popleft()
            if len(chain) > _MAX_CHASE_DEPTH:
                continue
            for edge in self.calls_from(current):
                target = edge["resolved"]
                if target in seen or self.is_async(target):
                    continue
                if self.function(target) is None:
                    continue
                seen.add(target)
                next_chain = chain + [target]
                yield target, next_chain
                queue.append((target, next_chain))
