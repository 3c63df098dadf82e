"""Smoke test of the benchmark itself, at tiny windows (about a minute).

    python3 perfbench/smoke.py

Checks that:

* every metric named in ``BENCHMARK.json`` is printed with its unit on
  every workload, end-to-end with ``--trace 0`` and per-layer with
  ``--trace 1``, and nothing fails at the default seed;
* ``interconnect.fallback_share`` is 0 on the healthy sweeps and above
  0 on ``sweep-degraded``;
* the exact counts repeat across two traced runs;
* a perturbed reference digest drives ``ok_op_share`` below 1;
* ``--write-reference`` refuses to overwrite without ``--force``;
* without the simulator sources the benchmark fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
EXACT_COUNTS = ("core.steps", "interconnect.submits", "clusters.steer_calls")


def invoke(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
            print(f"FAIL {message}", flush=True)

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=BENCH_DIR / "out"))
    try:
        reference = scratch / "reference.json"
        code, _, err = invoke("--write-reference", "--scale", "tiny",
                              "--reference", str(reference))
        expect(code == 0, f"--write-reference failed: {err[-500:]}")
        code, _, _ = invoke("--write-reference", "--scale", "tiny",
                            "--reference", str(reference))
        expect(code != 0, "--write-reference overwrote without --force")

        common = ("--seed", "42", "--seconds", "1", "--scale", "tiny",
                  "--reference", str(reference))
        counts = {}
        for workload in workloads:
            for trace in (0, 1):
                code, result, err = invoke("--workload", workload,
                                           "--trace", str(trace), *common)
                label = f"{workload} --trace {trace}"
                if result is None:
                    expect(False, f"{label}: no result line: {err[-500:]}")
                    continue
                expect(code == 0 and result["correct"]
                       and result["failed"] == 0,
                       f"{label}: failed ops: {err[-500:]}")
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(printed == units[trace],
                       f"{label}: metrics/units differ from BENCHMARK.json")
                if trace:
                    counts[workload] = result["metrics"]
            if workload in counts and workload.startswith("sweep"):
                share = counts[workload]["interconnect.fallback_share"]
                expect((share["value"] > 0) == (workload == "sweep-degraded"),
                       f"{workload}: fallback_share {share['value']}")

        _, again, _ = invoke("--workload", "sweep-4cl", "--trace", "1",
                             *common)
        for name in EXACT_COUNTS:
            first = counts.get("sweep-4cl", {}).get(name, {}).get("value")
            second = (again or {}).get("metrics", {}).get(name, {})
            expect(first is not None and first == second.get("value"),
                   f"{name} differs across traced runs")

        doc = json.loads(reference.read_text())
        digests = doc["digests"]["sweep-4cl"]
        key = sorted(digests)[0]
        digests[key] = "0" * len(digests[key])
        perturbed = scratch / "perturbed.json"
        perturbed.write_text(json.dumps(doc))
        code, result, _ = invoke("--workload", "sweep-4cl", "--seed", "42",
                                 "--seconds", "1", "--scale", "tiny",
                                 "--reference", str(perturbed))
        ok_share = (result or {}).get("metrics", {}).get(
            "ok_op_share", {}).get("value", 1.0)
        expect(code != 0 and result is not None and not result["correct"]
               and ok_share < 1,
               "a perturbed reference digest went unnoticed")

        bare = scratch / "bare"
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-4cl",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "ran without the simulator sources")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: " + ("OK" if not problems
                       else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
