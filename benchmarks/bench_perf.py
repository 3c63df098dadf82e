"""Engine perf benchmark: the event engine vs the scalar reference.

Measures a Table-3-style sweep (every interconnect model x a benchmark
subset) on both engines and reports the speedup ratio.  The ratio is
the committed number -- wall-clock seconds vary per machine, but both
engines run on the *same* machine in the same process, so their ratio
is stable enough to gate on (BENCH_perf.json, +/-20%).

Two scenarios, each with its own ratio and gate:

* ``healthy`` -- plain runs;
* ``degraded`` -- the same runs rotated through a bit-error fault spec,
  a plane-gating policy and a traced run with a counting event sink.

Every differential pair is also checked for BenchmarkRun equality, so
the perf gate can never pass on an engine that drifted semantically.

Usage:
    python benchmarks/bench_perf.py              # measure and report
    python benchmarks/bench_perf.py --check      # gate vs BENCH_perf.json
    python benchmarks/bench_perf.py --update     # append to trajectory
    python benchmarks/bench_perf.py --profile p.prof   # event-engine profile

Runs standalone (PYTHONPATH=src) -- not a pytest-benchmark suite, so CI
can gate on its exit status without the tier-1 plugins.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.models import MODEL_NAMES, model  # noqa: E402
from repro.core.simulation import simulate_benchmark  # noqa: E402
from repro.telemetry import EventSink, Telemetry  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_perf.json"

#: The measured workload: all ten models over a small, cache-behaviour-
#: diverse benchmark subset.  Scaled so the full two-engine measurement
#: stays under a minute on a laptop-class core.
WORKLOAD = {
    "models": list(MODEL_NAMES),
    "benchmarks": ["gzip", "art", "mcf"],
    "instructions": 2000,
    "warmup": 500,
    "seed": 42,
    "rounds": 2,
}

TOLERANCE = 0.20

#: The degraded scenario's modes.  Model ``m`` on benchmark ``b`` (list
#: positions) takes mode ``(m + b) % 3``, so every model and every
#: benchmark meets every mode.
DEGRADED_MODES = (
    {"fault_spec": "ber=1e-4"},
    {"gating": "idle:drowsy=64,gate=256"},
    {"traced": True},
)

#: Scenario -> key prefix of its numbers in a trajectory entry.
SCENARIOS = {"healthy": "", "degraded": "degraded_"}


class CountingSink(EventSink):
    """Counts telemetry events without keeping them."""

    def __init__(self) -> None:
        self.emitted = 0

    def emit(self, event) -> None:
        self.emitted += 1


def run_sweep(engine: str, scenario: str = "healthy") -> list:
    """(run, events emitted or None) for every model x benchmark."""
    runs = []
    for m, name in enumerate(WORKLOAD["models"]):
        for b, bench in enumerate(WORKLOAD["benchmarks"]):
            runs.append(run_one(engine, name, bench, m + b, scenario))
    return runs


def run_one(engine: str, name: str, bench: str, index: int,
            scenario: str) -> tuple:
    mode = (DEGRADED_MODES[index % len(DEGRADED_MODES)]
            if scenario == "degraded" else {})
    sink = CountingSink() if mode.get("traced") else None
    run = simulate_benchmark(
        model(name).config, bench,
        instructions=WORKLOAD["instructions"],
        warmup=WORKLOAD["warmup"],
        seed=WORKLOAD["seed"],
        fault_spec=mode.get("fault_spec"),
        gating=mode.get("gating"),
        telemetry=None if sink is None else Telemetry(sink=sink),
        engine=engine,
    )
    return run, None if sink is None else sink.emitted


def measure_scenario(scenario: str) -> dict:
    """Best-of-N sweep seconds per engine, plus the equality check."""
    timings = {}
    results = {}
    # Event first so its one-time per-benchmark annotation cost is paid
    # outside the best-of-N window, mirroring sweep steady state.
    for engine in ("event", "scalar"):
        best = None
        for _ in range(WORKLOAD["rounds"]):
            start = time.perf_counter()
            runs = run_sweep(engine, scenario)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        timings[engine] = best
        results[engine] = runs
    mismatches = [
        (name, bench)
        for (name, bench), scalar_run, event_run in zip(
            ((m, b) for m in WORKLOAD["models"]
             for b in WORKLOAD["benchmarks"]),
            results["scalar"], results["event"])
        if scalar_run != event_run
    ]
    if mismatches:
        raise SystemExit(
            f"FATAL: engines disagree on {mismatches} ({scenario}); a "
            f"perf number for a wrong engine is meaningless -- run the "
            f"differential suites (tests/core/test_fast_equiv.py, "
            f"tests/interconnect/test_gating_equiv.py)"
        )
    prefix = SCENARIOS[scenario]
    return {
        f"{prefix}scalar_seconds": round(timings["scalar"], 3),
        f"{prefix}event_seconds": round(timings["event"], 3),
        f"{prefix}speedup": round(timings["scalar"] / timings["event"], 3),
    }


def measure() -> dict:
    current = {}
    for scenario in SCENARIOS:
        current.update(measure_scenario(scenario))
    return current


def pinned_speedup(trajectory: list, key: str):
    """The newest trajectory entry's ``key``, or None if none has it."""
    for entry in reversed(trajectory):
        if key in entry:
            return entry[key]
    return None


def check(current: dict, trajectory: list) -> int:
    """Gate every scenario's speedup at +/-TOLERANCE of its pin."""
    status = 0
    for scenario, prefix in SCENARIOS.items():
        key = f"{prefix}speedup"
        measured = current[key]
        pinned = pinned_speedup(trajectory, key)
        if pinned is None:
            print(f"{scenario}: no pinned speedup yet; record one with "
                  f"--update")
            continue
        low = pinned * (1 - TOLERANCE)
        high = pinned * (1 + TOLERANCE)
        if measured < low:
            print(f"FAIL: {scenario} speedup {measured:.2f}x fell below "
                  f"{low:.2f}x (pinned {pinned:.2f}x -{TOLERANCE:.0%}); "
                  f"the event engine regressed")
            status = 1
        elif measured > high:
            print(f"FAIL: {scenario} speedup {measured:.2f}x exceeds "
                  f"{high:.2f}x (pinned {pinned:.2f}x +{TOLERANCE:.0%}); "
                  f"record the improvement with --update")
            status = 1
        else:
            print(f"OK: {scenario} within {TOLERANCE:.0%} of the pinned "
                  f"{pinned:.2f}x")
    return status


def write_profile(path: Path) -> None:
    profiler = cProfile.Profile()
    profiler.enable()
    run_sweep("event")
    profiler.disable()
    profiler.dump_stats(str(path))
    print(f"event-engine profile written to {path} "
          f"(inspect with `python -m pstats`)")


def load_baseline() -> dict:
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="gate against BENCH_perf.json (+/-20%%)")
    parser.add_argument("--update", action="store_true",
                        help="append this measurement to the trajectory")
    parser.add_argument("--label", default="",
                        help="trajectory label for --update")
    parser.add_argument("--profile", type=Path, default=None,
                        help="also write an event-engine cProfile here")
    args = parser.parse_args(argv)

    current = measure()
    for scenario, prefix in SCENARIOS.items():
        print(f"{scenario}: scalar: {current[prefix + 'scalar_seconds']:.2f}s"
              f"   event: {current[prefix + 'event_seconds']:.2f}s   "
              f"speedup: {current[prefix + 'speedup']:.2f}x "
              f"({platform.python_implementation()} "
              f"{platform.python_version()})")

    if args.profile is not None:
        write_profile(args.profile)

    status = 0
    if args.check:
        status = check(current, load_baseline()["trajectory"])

    if args.update:
        baseline = (load_baseline() if BASELINE_PATH.exists()
                    else {"workload": WORKLOAD, "trajectory": []})
        baseline["workload"] = WORKLOAD
        entry = dict(current)
        if args.label:
            entry["label"] = args.label
        baseline["trajectory"].append(entry)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(baseline, fh, indent=2)
            fh.write("\n")
        print(f"trajectory updated: {BASELINE_PATH}")

    return status


if __name__ == "__main__":
    sys.exit(main())
