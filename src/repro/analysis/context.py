"""Per-file context handed to every rule.

Holds the parsed AST, the repo-relative path (rules scope themselves by
package: ``src/repro/`` vs ``src/repro/harness/`` vs ``tests/``) and
the inline ``# simlint: disable=CODE`` suppressions extracted from the
token stream.

Suppression comments follow the convention stated in the package doc:

* on a code line, they apply to findings reported on that line;
* on a line of their own, they apply to the next code line (so a
  rationale can sit above a long statement).

Codes are comma-separated and may end in ``x`` wildcards to cover a
family (``SIM3xx`` suppresses every SIM3 rule); ``all`` suppresses
everything.  Suppressing a whole family or ``all`` is meant for
annotated boundaries like the crash-isolation worker, not for routine
use -- prefer the exact code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

_DISABLE_RE = re.compile(
    r"#\s*simlint:\s*disable=([A-Za-z0-9x,\s]+)"
)


def parse_suppressions(source: str
                       ) -> Tuple[Dict[int, Set[str]], Optional[str]]:
    """Map line number -> suppression patterns, plus a tokenize error.

    Patterns are uppercased verbatim tokens (``SIM101``, ``SIM3XX``,
    ``ALL``); wildcard matching happens in :func:`suppressed`.

    Returns ``(suppressions, error)``.  When the token stream cannot
    be read at all, ``error`` carries a description and the map is
    empty -- the caller must surface that (SIM002), because a file
    whose suppressions silently vanish would re-report every
    deliberately-suppressed finding (or worse, pass a gate its author
    thought was suppressed for a *reason* that no longer parses).
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError,
            IndentationError) as exc:
        return suppressions, (
            f"suppression comments unreadable "
            f"({type(exc).__name__}: {exc}); inline disables in this "
            f"file are being ignored"
        )
    # Lines that hold nothing but a comment (plus whitespace/NL).
    code_lines: Set[int] = set()
    for tok in tokens:
        if tok.type in (tokenize.COMMENT, tokenize.NL,
                        tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        for ln in range(tok.start[0], tok.end[0] + 1):
            code_lines.add(ln)
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _DISABLE_RE.search(tok.string)
        if not match:
            continue
        codes = {
            c.strip().upper()
            for c in match.group(1).split(",")
            if c.strip()
        }
        if not codes:
            continue
        line = tok.start[0]
        if line not in code_lines:
            # Standalone comment: applies to the next code line.
            line = min(
                (ln for ln in sorted(code_lines) if ln > line),
                default=line,
            )
        suppressions.setdefault(line, set()).update(codes)
    return suppressions, None


def suppressed(code: str, patterns: Set[str]) -> bool:
    """True if ``code`` matches any suppression pattern."""
    code = code.upper()
    for pattern in sorted(patterns):
        if pattern == "ALL" or pattern == code:
            return True
        if pattern.endswith("X"):
            prefix = pattern.rstrip("X")
            if code.startswith(prefix) and len(code) == len(pattern):
                return True
    return False


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    rel: str  # posix path relative to the detected root
    tree: ast.AST
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: Why suppressions could not be read (SIM002), if they couldn't.
    suppression_error: Optional[str] = None

    # -- path scoping ----------------------------------------------------

    @property
    def in_src(self) -> bool:
        """Inside the simulator package proper."""
        return self.rel.startswith("src/repro/")

    @property
    def in_harness(self) -> bool:
        """Inside the experiment harness (timing paths are legitimate)."""
        return self.rel.startswith("src/repro/harness/")

    @property
    def in_service(self) -> bool:
        """Inside the sweep service (wall-clock timeouts are its job)."""
        return self.rel.startswith("src/repro/service/")

    # -- AST helpers -----------------------------------------------------

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order.

        Built once per file; rules iterate this list instead of each
        walking the tree again.
        """
        return list(ast.walk(self.tree))

    @cached_property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built lazily)."""
        parents: Dict[ast.AST, ast.AST] = {}
        for node in self.nodes:
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return parents

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """Nearest enclosing FunctionDef/AsyncFunctionDef, if any."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                return current
            current = parents.get(current)
        return None


def load_context(path: Path, rel: str) -> Tuple[Optional[FileContext],
                                                Optional[str]]:
    """Parse ``path`` into a context, or return an error description."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, f"unreadable: {exc}"
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return None, f"syntax error: {exc.msg} (line {exc.lineno})"
    suppressions, supp_error = parse_suppressions(source)
    return FileContext(
        rel=rel,
        tree=tree,
        suppressions=suppressions,
        suppression_error=supp_error,
    ), None
