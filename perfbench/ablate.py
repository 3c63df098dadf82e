"""Fast-layer ablation: each fast class swapped back to its scalar base.

The swap overrides a class hook of ``EventProcessor`` from here, so no
simulator source changes.  ``ablate.<Class>`` is the ``sim_kips`` of
the unmodified event engine over the ``sim_kips`` with that one class
swapped back: above 1 the fast class earns its code.  Every ablated run
must stay bit-equal to the unmodified engine's.

Host speed on a shared machine drifts by more than the effects measured
here, so the configurations are paired per op: each plan runs under
every configuration back to back, in a rotating order, before the next
plan starts.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.clusters.cluster import Cluster
from repro.clusters.steering import SteeringHeuristic
from repro.core.fastcore import EventProcessor
from repro.harness.runner import ExperimentRunner, ResultCache
from repro.memory.lsq import LoadStoreQueue

from resultcheck import digest
from workload import Op, run_op

#: Fast class -> (EventProcessor hook, scalar base class).
SWAPS = {
    "FastCluster": ("CLUSTER_CLS", Cluster),
    "VectorSteering": ("STEERING_CLS", SteeringHeuristic),
    "FastLoadStoreQueue": ("LSQ_CLS", LoadStoreQueue),
}


@contextmanager
def swapped(name: Optional[str]) -> Iterator[None]:
    if name is None:
        yield
        return
    hook, base = SWAPS[name]
    original = EventProcessor.__dict__[hook]
    setattr(EventProcessor, hook, base)
    try:
        yield
    finally:
        setattr(EventProcessor, hook, original)


def ablate(ops: Sequence[Op], scratch: Path, seconds: float,
           rounds: int = 3) -> Dict[str, object]:
    """Paired rounds over every op until ``seconds`` pass (at least
    ``rounds``); each round writes into fresh empty caches."""
    configs: List[Optional[str]] = [None, *SWAPS]
    seconds_in: Dict[Optional[str], float] = dict.fromkeys(configs, 0.0)
    committed: Dict[Optional[str], int] = dict.fromkeys(configs, 0)
    digests: Dict[Optional[str], Dict[str, str]] = {c: {} for c in configs}
    mismatched: List[str] = []
    failed = attempted = 0
    deadline = time.perf_counter() + seconds
    r = 0
    while r < rounds or time.perf_counter() < deadline:
        dirs = {c: tempfile.mkdtemp(prefix="ablate-", dir=scratch)
                for c in configs}
        try:
            runners = {c: ExperimentRunner(
                cache=ResultCache(directory=Path(d), enabled=True),
                verbose=False) for c, d in dirs.items()}
            for i, op in enumerate(ops):
                k = (i + r) % len(configs)
                for config in configs[k:] + configs[:k]:
                    with swapped(config):
                        result = run_op(op, runners[config])
                    attempted += 1
                    if result.error:
                        failed += 1
                        continue
                    seconds_in[config] += result.seconds
                    committed[config] += result.committed
                    found = digest(result.run, result.events)
                    if digests[config].setdefault(op.key, found) != found:
                        mismatched.append(f"{config or 'event'} {op.key} "
                                          f"changed in round {r}")
        finally:
            for d in dirs.values():
                shutil.rmtree(d, ignore_errors=True)
        r += 1
    for config in SWAPS:
        for key, found in digests[config].items():
            if digests[None].get(key) != found:
                mismatched.append(f"{config} {key} differs from the "
                                  f"event engine")
    kips = {c: committed[c] / seconds_in[c] / 1e3 if seconds_in[c] else 0.0
            for c in configs}
    return {
        "rounds": r,
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "sim_kips": {c or "event": v for c, v in kips.items()},
        "ratios": {f"ablate.{c}": kips[None] / kips[c] if kips[c] else 0.0
                   for c in SWAPS},
    }
