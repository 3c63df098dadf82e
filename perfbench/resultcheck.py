"""Result checks behind ``correct``, ``failed`` and ``ok_op_share``.

Every op's ``BenchmarkRun`` is reduced to a digest of its canonical
JSON (plus the telemetry event count of a traced op).  An op fails its
check when:

* at the default seed, its digest differs from the committed reference
  (``reference.json``, generated once from the scalar reference engine,
  so the benchmark also guards engine equality at benchmark scale);
* its digest differs from the same op's digest in an earlier run of it
  in the same invocation;
* it committed fewer instructions than requested, or a whole commit
  group more (the core commits up to ``commit_width`` per cycle and
  stops at the end of the cycle that reaches the target);
* an energy figure is not finite or is negative.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Optional

from repro.core.config import ProcessorConfig
from repro.core.metrics import BenchmarkRun

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")
COMMIT_WIDTH = ProcessorConfig().commit_width


def digest(run: BenchmarkRun, events: Optional[int]) -> str:
    doc = dataclasses.asdict(run)
    if events is not None:
        doc["telemetry_events"] = events
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sanity_problem(run: BenchmarkRun, instructions: int) -> str:
    """Why ``run`` is implausible for its plan, or "" when it is not."""
    if not instructions <= run.instructions < instructions + COMMIT_WIDTH:
        return (f"committed {run.instructions}, requested {instructions} "
                f"(commit width {COMMIT_WIDTH})")
    energies = {"interconnect_dynamic": run.interconnect_dynamic,
                "interconnect_leakage": run.interconnect_leakage}
    energies.update((k, v) for k, v in run.extra if "energy" in k)
    for name, value in energies.items():
        if not math.isfinite(value) or value < 0:
            return f"{name} = {value!r}"
    return ""


class Checker:
    """Checks op results; keeps the first digest seen for each op."""

    def __init__(self, reference: Optional[Dict[str, str]]) -> None:
        #: op key -> digest at the default seed, or None at other seeds.
        self.reference = reference
        self.first: Dict[str, str] = {}

    def problem(self, result) -> str:
        """Why an op result fails its check, or "" when it passes."""
        if result.error:
            return result.error
        problem = sanity_problem(result.run, result.op.plan.instructions)
        if problem:
            return problem
        key = result.op.key
        found = digest(result.run, result.events)
        if self.reference is not None and self.reference.get(key) != found:
            return (f"digest {found} != reference "
                    f"{self.reference.get(key)}")
        first = self.first.setdefault(key, found)
        if first != found:
            return f"digest {found} != {first} of an earlier run"
        return ""


def load_reference(path: Path, scale_json: Dict[str, object],
                   workload: str) -> Dict[str, str]:
    """Reference digests of ``workload``; empty for another scale.

    An empty mapping makes every op fail its check, so a stale or
    missing reference can never pass silently.
    """
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    if doc.get("scale") != scale_json:
        return {}
    return dict(doc.get("digests", {}).get(workload, {}))


def write_reference(path: Path, doc: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
