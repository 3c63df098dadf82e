"""simlint: simulator-invariant static analysis.

The reproduction's headline numbers are only trustworthy if every run
is bit-deterministic and every plan field that affects results is part
of the cache key.  ``simlint`` machine-checks those invariants on every
commit instead of trusting convention:

* **SIM1xx determinism** -- no global-RNG draws, no wall clock outside
  the harness timing paths, no hash-ordered set iteration or ``id()``
  ordering feeding results.
* **SIM2xx cache-key completeness** -- every field of a plan dataclass
  must feed its ``cache_key()``, and the key must pin ``CACHE_VERSION``.
* **SIM3xx exception hygiene** -- broad ``except`` only at annotated
  crash-isolation boundaries; ``ConfigError``, not ``KeyError``, for
  configuration lookups.
* **SIM4xx model hygiene** -- spec/plan/report dataclasses frozen, no
  float-literal equality in metrics.

Whole-program passes run over a linked project context (import graph,
symbol table, approximate call graph -- see
:mod:`repro.analysis.project`):

* **SIM5xx seed provenance** -- every RNG construction must be seeded
  from a plan-derived value (taint chased across the call graph), and
  plan fields consumed across modules must feed ``cache_key()``.
* **SIM8xx async blocking** -- blocking calls (``time.sleep``, sync
  file I/O, sweep fan-out) written in or reachable from ``async def``
  bodies via sync helpers.

Generic style (bare ``except:``, mutable default arguments, ...) is
ruff's job, configured in ``pyproject.toml``.

Run it as ``python -m repro.analysis.simlint src tests`` or via the
CLI as ``repro lint``.  Each run is one serial, read-only pass over
the files.  Findings are suppressed inline with
``# simlint: disable=CODE`` (rationale comment expected) or allowlisted
in the committed ``simlint-baseline.json`` (``--check-baseline`` keeps
it free of stale entries); ``--explain SIMxxx`` prints a rule's
rationale with its test-backed bad/good examples.
"""

from .baseline import Baseline
from .engine import LintResult, lint_paths
from .findings import Finding
from .registry import Rule, all_rules, get_rule

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
]
