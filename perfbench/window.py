"""Window fit: the fixed cost of an op, and its share at two windows.

The host time of one op is modelled as ``a + b * n``: a fixed cost
``a`` (processor build, prewarm restore, the runner's bookkeeping and
cache store) and a cost ``b`` per committed instruction ``n``, warm-up
counted at its requested size.  Each plan runs at a short and a long
window back to back, in a rotating order, each window into its own
empty cache; the two totals give ``a`` and ``b`` over every op, and
``a`` over an op's time is the share of a sweep that does not scale
with the window.  Pairing per op keeps the host's drift out of the fit.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, Sequence, Tuple

from repro.harness.runner import ExperimentRunner, ResultCache

from workload import Op, run_op


def window_fit(pairs: Sequence[Tuple[Op, Op]], scratch: Path,
               seconds: float, rounds: int = 1) -> Dict[str, object]:
    """Paired rounds over every (short, long) op pair until ``seconds``
    pass (at least ``rounds``)."""
    seconds_in = [0.0, 0.0]
    committed = [0, 0]
    failed = attempted = measured = 0
    deadline = time.perf_counter() + seconds
    r = 0
    while r < rounds or time.perf_counter() < deadline:
        dirs = [tempfile.mkdtemp(prefix="window-", dir=scratch)
                for _ in range(2)]
        try:
            runners = [ExperimentRunner(
                cache=ResultCache(directory=Path(d), enabled=True),
                verbose=False) for d in dirs]
            for i, pair in enumerate(pairs):
                order = (0, 1) if (i + r) % 2 == 0 else (1, 0)
                results = {w: run_op(pair[w], runners[w]) for w in order}
                attempted += 2
                if any(result.error for result in results.values()):
                    failed += sum(1 for result in results.values()
                                  if result.error)
                    continue
                measured += 1
                for w, result in results.items():
                    seconds_in[w] += result.seconds
                    committed[w] += result.committed
        finally:
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)
        r += 1
    fit: Dict[str, object] = {"rounds": r, "attempted": attempted,
                              "failed": failed, "ops": measured}
    if measured and committed[1] != committed[0]:
        per_instruction = ((seconds_in[1] - seconds_in[0])
                           / (committed[1] - committed[0]))
        fixed = seconds_in[0] - per_instruction * committed[0]
        fit.update({
            "fixed_ms_per_op": fixed / measured * 1e3,
            "us_per_instruction": per_instruction * 1e6,
            "asymptotic_kips": 1e-3 / per_instruction,
        })
        for w, name in enumerate(("short", "long")):
            fit[f"{name}.sim_kips"] = committed[w] / seconds_in[w] / 1e3
            fit[f"{name}.op_ms"] = seconds_in[w] / measured * 1e3
            fit[f"{name}.fixed_share"] = fixed / seconds_in[w]
    return fit
