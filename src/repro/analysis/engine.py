"""File discovery and the lint pass.

One serial, in-memory pass over the discovered files:

1. read and parse each file (SIM000 when it cannot be) and read its
   inline suppressions (SIM002 when they cannot be);
2. run the per-file rules over the parsed tree;
3. reduce the tree to its :class:`ModuleFacts`;
4. link every module's facts into a
   :class:`~repro.analysis.project.ProjectContext` (import graph,
   symbol table, call graph) and run the whole-program rules
   (SIM5xx/SIM8xx);
5. filter (``select``, then inline suppressions), sort, and partition
   against the baseline.

Every rule always runs; ``select`` filters findings afterwards.
Ordering is fully deterministic: files are processed in relative-path
order, findings sort by (path, line, col, code).  The pass writes
nothing to disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .baseline import Baseline
from .context import load_context, suppressed
from .facts import extract_facts
from .findings import Finding
from .project import ProjectContext
from .registry import file_rules, project_rules

#: Directory names never descended into.
_SKIP_DIRS = {
    "__pycache__", ".git", ".repro_cache", "build", "dist", ".eggs",
    "node_modules",
}

#: Pseudo-rule code for files that cannot be analysed at all.
PARSE_ERROR_CODE = "SIM000"

#: Pseudo-rule code for files whose suppression comments cannot be
#: tokenized (inline disables are silently dead in such a file).
SUPPRESSION_ERROR_CODE = "SIM002"


def find_root(start: Path) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` (else the parent).

    Relative paths in findings, suppression scoping (``src/repro/...``)
    and the default baseline location all hang off this root.
    """
    start = start.resolve()
    candidates = [start] if start.is_dir() else []
    candidates.extend(start.parents)
    for candidate in candidates:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start if start.is_dir() else start.parent


#: Marker file: a directory holding one is skipped during discovery.
#: The lint-fixture corpus (deliberate violations the test suite and
#: ``--explain`` feed through the analyzer in throwaway trees) lives
#: behind one of these.
IGNORE_MARKER = ".simlint-ignore"


def _under_ignore_marker(candidate: Path, top: Path,
                         memo: Dict[Path, bool]) -> bool:
    for parent in candidate.parents:
        flag = memo.get(parent)
        if flag is None:
            flag = (parent / IGNORE_MARKER).is_file()
            memo[parent] = flag
        if flag:
            return True
        if parent == top:
            break
    return False


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered.

    Files explicitly named are always included; during directory
    walks, hidden/bookkeeping directories and anything below a
    ``.simlint-ignore`` marker are skipped.
    """
    files: List[Path] = []
    seen: Set[Path] = set()
    marker_memo: Dict[Path, bool] = {}
    for path in paths:
        path = path.resolve()
        if path.is_file():
            found: Iterable[Path] = [path]
        else:
            found = (
                candidate for candidate in path.rglob("*.py")
                if not any(part in _SKIP_DIRS or part.startswith(".")
                           for part in candidate.relative_to(path).parts)
                and not _under_ignore_marker(candidate, path,
                                             marker_memo)
            )
        for candidate in found:
            if candidate not in seen:
                seen.add(candidate)
                files.append(candidate)
    files.sort()
    return files


# Accumulator the engine fills while linting, not a hashed value
# type; mutability is the point here.
@dataclass  # simlint: disable=SIM401
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)  # gate these
    baselined: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> List[Tuple[str, int]]:
        counts = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return sorted(counts.items())


def _relative(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[Path],
    baseline: Optional[Baseline] = None,
    select: Optional[Set[str]] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Run every rule over every file under ``paths``.

    ``select`` restricts *reported* findings to the given codes.  The
    pseudo codes SIM000/SIM002 bypass ``select`` and inline
    suppression: they say the analysis itself is degraded, which no
    filter should hide.  ``root`` overrides repo-root detection (tests
    use this).
    """
    if not paths:
        raise ValueError("lint_paths needs at least one path")
    if root is None:
        root = find_root(Path(paths[0]))
    result = LintResult()
    files = sorted((_relative(path, root), path)
                   for path in discover_files([Path(p) for p in paths]))

    raw: List[Finding] = []
    candidates: List[Finding] = []
    suppressions: Dict[str, Dict[int, Set[str]]] = {}
    project = ProjectContext()
    for rel, path in files:
        result.files_checked += 1
        ctx, error = load_context(path, rel)
        if ctx is None:
            raw.append(Finding(code=PARSE_ERROR_CODE,
                               message=f"could not analyse file: {error}",
                               path=rel, line=1, col=0))
            continue
        if ctx.suppression_error is not None:
            raw.append(Finding(code=SUPPRESSION_ERROR_CODE,
                               message=ctx.suppression_error,
                               path=rel, line=1, col=0))
        suppressions[rel] = ctx.suppressions
        for rule in file_rules():
            candidates.extend(rule.check(ctx))
        project.add_module(extract_facts(ctx))
    project.link()
    for rule in project_rules():
        candidates.extend(rule.check(project))

    for finding in candidates:
        if select and finding.code not in select:
            continue
        patterns = suppressions.get(finding.path, {}).get(finding.line)
        if patterns and suppressed(finding.code, patterns):
            result.suppressed += 1
            continue
        raw.append(finding)
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    if baseline is not None:
        result.findings, result.baselined = baseline.partition(raw)
    else:
        result.findings = raw
    return result
