"""Perf observatory: end-to-end and per-layer benchmark of the simulator.

    python3 perfbench/run.py --workload sweep-4cl --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload sweep-4cl --seed 42 --seconds 15 --trace 1
    python3 perfbench/run.py --ablate --workload sweep-16cl --seconds 90
    python3 perfbench/run.py --window-fit --workload sweep-4cl --seconds 60
    python3 perfbench/run.py --write-reference --force

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate cProfile'd pass.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import time

#: Process start as this benchmark sees it; ``setup_s`` counts from here.
T0 = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no simulator sources at {SRC}; run from the root "
             f"of a checkout")
sys.path.insert(0, str(SRC))

from ablate import ablate  # noqa: E402
from layers import LAYERS, LayerMap, counting_cycles  # noqa: E402
from repro.core.simulation import DEFAULT_SEED  # noqa: E402
from repro.harness.profiling import HarnessProfiler  # noqa: E402
from resultcheck import (  # noqa: E402
    REFERENCE_PATH,
    Checker,
    digest,
    load_reference,
    sanity_problem,
    write_reference,
)
from window import window_fit  # noqa: E402
from workload import (  # noqa: E402
    SCALES,
    SWEEP_WORKLOADS,
    WORKLOADS,
    annotate_traces,
    cli_env,
    cli_requested,
    cli_table3,
    run_python,
    run_sweep,
    sweep_ops,
    table_text,
    warm_ops,
)

END_TO_END = {
    "sim_kips": "kips",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_op_share": "share",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "share" for layer in LAYERS},
    "core.steps": "count",
    "core.cycles": "count",
    "core.skip_ratio": "share",
    "core.host_ns_per_cycle": "ns",
    "frontend.fetch_ticks": "count",
    "clusters.steer_calls": "count",
    "clusters.select_calls": "count",
    "interconnect.submits": "count",
    "interconnect.fallback_share": "share",
    "interconnect.ticks": "count",
    "memory.lsq_allocs": "count",
    "memory.false_dependences": "count",
    "faults.retransmissions": "count",
    "power.plane_wakes": "count",
    "telemetry.events": "count",
    "harness.cache_load_ms": "ms/op",
    "harness.cache_store_ms": "ms/op",
    "harness.cache_hits": "count",
    "harness.import_ms": "ms",
    "telemetry.sim_kips": "kips",
    "faults.sim_kips": "kips",
    "power.sim_kips": "kips",
    "trace.overhead": "ratio",
}

#: A sweep run times at least this many whole sweeps.
MIN_SWEEPS = 1
#: ``table3-warm`` runs at least this many invocations, so its tail
#: percentile (10 ops beyond it) is at least the median.
MIN_CLI_OPS = 20
#: Fresh processes behind ``setup_s`` and ``harness.import_ms``.
SETUP_SAMPLES = 3
TRACE_CLI_OPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        default="sweep-4cl")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; becomes ExperimentPlan.seed")
    parser.add_argument("--seconds", type=int, default=15,
                        help="measurement time (whole sweeps; at least "
                             f"{MIN_SWEEPS} sweep or {MIN_CLI_OPS} "
                             "table3 invocations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", choices=tuple(SCALES),
                        default="default",
                        help="work per sweep; 'short' is for --window-fit "
                             "and traced comparisons, 'tiny' for smoke.py")
    parser.add_argument("--reference", type=Path,
                        default=REFERENCE_PATH,
                        help="reference digests checked at the default "
                             "seed")
    parser.add_argument("--ablate", action="store_true",
                        help="fast-layer ablation table (sweep-4cl or "
                             "sweep-16cl)")
    parser.add_argument("--window-fit", action="store_true",
                        help="fixed cost per op: --scale against the "
                             "'short' window (sweep workloads)")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate --reference with the scalar "
                             "engine")
    parser.add_argument("--force", action="store_true",
                        help="let --write-reference overwrite")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.ablate and args.workload not in ("sweep-4cl", "sweep-16cl"):
        parser.error("--ablate runs on sweep-4cl or sweep-16cl")
    if args.window_fit and args.workload not in SWEEP_WORKLOADS:
        parser.error("--window-fit runs on the sweep workloads")
    return args


def isolate_environment(scratch: Path) -> None:
    """Pin what the environment could otherwise leak into a run."""
    for var in ("REPRO_INSTRUCTIONS", "REPRO_WARMUP", "REPRO_NO_CACHE"):
        os.environ.pop(var, None)
    # The engine the CLI uses.
    os.environ["REPRO_ENGINE"] = "event"
    # Never the repository's own .repro_cache/.
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "unused-cache")
    # Cache provenance asks git for a commit; keep it inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


def fingerprint():
    import numpy

    return {
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def tail(values):
    """(value, percentile): the highest percentile with 10 ops beyond,
    but never below the 75th, which a run of fewer than 40 ops gets."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, (3 * n - 1) // 4)
    return ordered[k], 100.0 * (k + 1) / n


class Spans:
    """Spans kept in memory: name, start, end, parent and plan id."""

    def __init__(self) -> None:
        self.records = []

    def add(self, name, start, end=None, parent=None, plan=None) -> int:
        self.records.append({"id": len(self.records), "name": name,
                             "start": start - T0,
                             "end": None if end is None else end - T0,
                             "parent": parent, "plan": plan})
        return len(self.records) - 1

    def close(self, span_id: int) -> None:
        self.records[span_id]["end"] = time.perf_counter() - T0


class Bench:
    """One invocation: its workload, scratch space, spans and checks."""

    def __init__(self, args, scratch: Path) -> None:
        self.args = args
        self.scale = SCALES[args.scale]
        self.scratch = scratch
        self.spans = Spans()
        self.root_span = self.spans.add(f"run:{args.workload}", T0)
        reference = None
        if args.seed == DEFAULT_SEED and args.workload != "table3-warm":
            reference = load_reference(args.reference, self.scale.to_json(),
                                       args.workload)
        self.checker = Checker(reference)
        self.failures = []
        self.attempted = 0

    def check(self, result) -> None:
        self.attempted += 1
        problem = self.checker.problem(result)
        if problem:
            self.failures.append(f"{result.op.key}: {problem}")

    def check_cli(self, result, expected_table: str) -> None:
        self.attempted += 1
        if result.returncode != 0:
            self.failures.append(f"table3 exited {result.returncode}: "
                                 f"{result.stderr.strip()[-300:]}")
        elif table_text(result.stdout) != expected_table:
            self.failures.append("table3 output differs from set-up's")

    # -- sweeps --------------------------------------------------------------

    def sweep(self, ops, name, profiler=None):
        sid = self.spans.add(name, time.perf_counter(),
                             parent=self.root_span)
        state = {"seen": 0}
        origin = (time.perf_counter() - profiler.now() / 1e6
                  if profiler is not None else 0.0)

        def on_op(result):
            op_span = self.spans.add("op", result.start, result.end, sid,
                                     result.op.key)
            if profiler is None:
                return
            events = profiler.events
            for event in events[state["seen"]:]:
                start = origin + event["ts"] / 1e6
                self.spans.add(event["name"], start,
                               start + event.get("dur", 0.0) / 1e6,
                               op_span, result.op.key)
            state["seen"] = len(events)

        results = run_sweep(ops, self.scratch, profiler, on_op)
        self.spans.close(sid)
        return results

    def setup_sweeps(self):
        ops = sweep_ops(self.args.workload, self.scale, self.args.seed)
        for result in self.sweep(warm_ops(ops), "setup"):
            if result.error:
                raise RuntimeError(f"set-up op {result.op.key} failed: "
                                   f"{result.error}")
        start = time.perf_counter()
        annotate_traces(ops)
        self.spans.add("annotate", start, time.perf_counter(),
                       self.root_span)
        return ops

    def setup_table3(self):
        cache_dir = self.scratch / "table3-cache"
        self.cli_args = ["-m", "repro",
                         *cli_table3(self.scale, self.args.seed)]
        self.cli_env = cli_env(SRC, cache_dir)
        start = time.perf_counter()
        filled = run_python(self.cli_args, self.cli_env, self.scratch)
        self.spans.add("setup", start, filled.end, self.root_span,
                       "table3-cold")
        if filled.returncode != 0:
            raise RuntimeError(f"cold table3 exited {filled.returncode}: "
                               f"{filled.stderr.strip()[-500:]}")
        return table_text(filled.stdout)

    def cli_ops(self, count=MIN_CLI_OPS, deadline=0.0, args_for=None):
        """``count`` table3 invocations, more until ``deadline``."""
        results = []
        while len(results) < count or time.perf_counter() < deadline:
            args = (self.cli_args if args_for is None
                    else args_for(len(results)))
            result = run_python(args, self.cli_env, self.scratch)
            self.spans.add("op", result.start, result.end, self.root_span,
                           "table3")
            results.append(result)
        return results

    # -- set-up samples ------------------------------------------------------

    def child_samples(self, args, env, key, count):
        """``count`` values of ``key`` from fresh Python processes."""
        samples = []
        for _ in range(count):
            result = run_python(args, env, self.scratch)
            if result.returncode != 0:
                raise RuntimeError(f"{key} sample exited "
                                   f"{result.returncode}: "
                                   f"{result.stderr.strip()[-500:]}")
            samples.append(json.loads(result.stdout.splitlines()[-1])[key])
        return samples

    def setup_samples(self):
        a = self.args
        return self.child_samples(
            [str(Path(__file__).resolve()), "--setup-only",
             "--workload", a.workload, "--seed", str(a.seed),
             "--scale", a.scale], dict(os.environ), "setup_s",
            SETUP_SAMPLES - 1)

    def import_ms(self):
        code = ("import json, time; t = time.perf_counter(); "
                "import repro.__main__; "
                "print(json.dumps({'import_ms': "
                "(time.perf_counter() - t) * 1e3}))")
        return median(self.child_samples(["-c", code], cli_env(SRC, None),
                                         "import_ms", SETUP_SAMPLES))


# -- end-to-end (trace 0) ----------------------------------------------------

def kips(results, clock="seconds"):
    """Thousands of committed instructions per CPU (or ``"wall"``)
    second of ``results``."""
    seconds = sum(getattr(r, clock) for r in results)
    return sum(r.committed for r in results) / seconds / 1e3 if seconds \
        else 0.0


#: Degraded mode -> the per-layer metric of its throughput.
MODE_METRIC = {"traced": "telemetry.sim_kips", "faulted": "faults.sim_kips",
               "gated": "power.sim_kips"}


def mode_kips(results):
    return {mode: kips([r for r in results if r.op.mode == mode])
            for mode in MODE_METRIC}


def timed_sweeps(bench, ops, deadline):
    sweeps = []
    last = 0.0
    # Start another sweep while it is expected to end by the deadline
    # plus half a sweep, so a run measures about ``--seconds`` on average.
    while (len(sweeps) < MIN_SWEEPS
           or time.perf_counter() + last / 2 < deadline):
        start = time.perf_counter()
        results = bench.sweep(ops, f"sweep{len(sweeps)}")
        last = time.perf_counter() - start
        for result in results:
            bench.check(result)
        sweeps.append(results)
    # Untimed: the first plan again, whose digest must repeat within
    # the invocation.
    for result in bench.sweep(ops[:1], "repeat"):
        bench.check(result)
    every = [r for sweep in sweeps for r in sweep]
    value, pct = tail([r.seconds for r in every])
    notes = {"sweeps": len(sweeps), "ops": len(every), "tail_pct": pct,
             "wall_sim_kips": median(kips(s, "wall") for s in sweeps),
             "wall_op_ms_p50": median(r.wall for r in every) * 1e3}
    if bench.args.workload == "sweep-degraded":
        notes["mode_sim_kips"] = mode_kips(every)
    return {
        "sim_kips": median(kips(sweep) for sweep in sweeps),
        "op_ms_p50": median(r.seconds for r in every) * 1e3,
        "op_ms_tail": value * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, notes


def timed_table3(bench, expected, deadline):
    results = bench.cli_ops(deadline=deadline)
    for result in results:
        bench.check_cli(result, expected)
    served = cli_requested(bench.scale)
    value, pct = tail([r.seconds for r in results])
    return {
        "sim_kips": served * len(results) / sum(r.seconds for r in results)
        / 1e3,
        "op_ms_p50": median(r.seconds for r in results) * 1e3,
        "op_ms_tail": value * 1e3,
        "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024,
    }, {"ops": len(results), "tail_pct": pct,
        "wall_op_ms_p50": median(r.wall for r in results) * 1e3}


# -- per-layer (trace 1) -----------------------------------------------------

def zero_layer_metrics():
    return {name: 0.0 for name in PER_LAYER}


def harness_metrics(metrics, events, ops):
    """Cache time per op and cache hits from harness-profiler events."""
    for metric, name in (("harness.cache_load_ms", "cache.load"),
                         ("harness.cache_store_ms", "cache.store")):
        metrics[metric] = sum(e.get("dur", 0.0) for e in events
                              if e["name"] == name) / 1e3 / ops
    metrics["harness.cache_hits"] = sum(1 for e in events
                                        if e["name"] == "cache.hit")


def traced_sweeps(bench, ops):
    metrics = zero_layer_metrics()
    metrics["harness.import_ms"] = bench.import_ms()
    plain = bench.sweep(ops, "untraced")
    profiler = HarnessProfiler()
    profile = cProfile.Profile()
    with counting_cycles() as cycles:
        profile.enable()
        try:
            traced = bench.sweep(ops, "traced", profiler)
        finally:
            profile.disable()
    for result in plain + traced:
        bench.check(result)
    metrics.update(LayerMap(SRC, BENCH_DIR).rollup(pstats.Stats(profile)))
    plain_s = sum(r.seconds for r in plain)
    metrics["core.cycles"] = cycles[0]
    if cycles[0]:
        metrics["core.skip_ratio"] = 1 - metrics["core.steps"] / cycles[0]
        metrics["core.host_ns_per_cycle"] = plain_s * 1e9 / cycles[0]
    for metric, extra in (("memory.false_dependences", "false_dependences"),
                          ("faults.retransmissions", "retransmissions"),
                          ("power.plane_wakes", "plane_wakes")):
        metrics[metric] = sum(r.run.extra_stats().get(extra, 0.0)
                              for r in traced if r.run is not None)
    metrics["telemetry.events"] = sum(r.events or 0 for r in traced)
    harness_metrics(metrics, profiler.events, len(traced))
    for mode, value in mode_kips(plain).items():
        metrics[MODE_METRIC[mode]] = value
    metrics["trace.overhead"] = sum(r.seconds for r in traced) / plain_s
    return metrics


def traced_table3(bench, expected):
    metrics = zero_layer_metrics()
    metrics["harness.import_ms"] = bench.import_ms()
    plain = bench.cli_ops(TRACE_CLI_OPS)
    profiles = [bench.scratch / f"cli{i}.prof" for i in range(TRACE_CLI_OPS)]
    traces = [bench.scratch / f"cli{i}.json" for i in range(TRACE_CLI_OPS)]
    traced = bench.cli_ops(TRACE_CLI_OPS, args_for=lambda i: [
        "-m", "cProfile", "-o", str(profiles[i]), *bench.cli_args,
        "--trace-out", str(traces[i])])
    # cProfile's runner swallows the CLI's exit status; the table check
    # still catches a broken invocation.
    for result in plain + traced:
        bench.check_cli(result, expected)
    metrics.update(LayerMap(SRC, BENCH_DIR).rollup(
        pstats.Stats(*map(str, profiles))))
    events = [event for path in traces
              for event in json.loads(path.read_text())["traceEvents"]]
    harness_metrics(metrics, events, TRACE_CLI_OPS)
    metrics["trace.overhead"] = (sum(r.seconds for r in traced)
                                 / sum(r.seconds for r in plain))
    return metrics


# -- commands ----------------------------------------------------------------

def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def report(bench, metrics, units, notes, record):
    failed = len(bench.failures)
    attempted = max(bench.attempted, 1)
    for failure in bench.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"workload {bench.args.workload}  seed {bench.args.seed}  "
          f"scale {bench.scale.name}  trace {bench.args.trace}")
    print(f"fingerprint {json.dumps(record['fingerprint'])}")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_op_share':<30} {failed / attempted:>14.6g} "
          f"({failed} of {bench.attempted} ops)")
    if notes:
        print(f"  notes {json.dumps(notes)}")
    bench.spans.close(bench.root_span)
    record.update(metrics=metrics, notes=notes, failures=bench.failures,
                  spans=bench.spans.records)
    OUT.mkdir(parents=True, exist_ok=True)
    a = bench.args
    (OUT / f"run-{a.workload}-s{a.seed}-t{a.trace}.json").write_text(
        json.dumps(record, indent=1))
    correct = failed == 0
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def cmd_measure(bench, setup_state):
    args = bench.args
    setup_self = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_self}))
        return 0
    record = {"args": {k: str(v) for k, v in vars(args).items()},
              "scale": bench.scale.to_json(), "fingerprint": fingerprint()}
    record["fingerprint"]["loadavg_before"] = os.getloadavg()
    table3 = args.workload == "table3-warm"
    notes = {}
    if args.trace:
        if table3:
            metrics = traced_table3(bench, setup_state)
        else:
            metrics = traced_sweeps(bench, setup_state)
        units = PER_LAYER
    else:
        setup = [setup_self, *bench.setup_samples()]
        deadline = time.perf_counter() + args.seconds
        if table3:
            metrics, notes = timed_table3(bench, setup_state, deadline)
        else:
            metrics, notes = timed_sweeps(bench, setup_state, deadline)
        metrics["setup_s"] = median(setup)
        metrics["ok_op_share"] = 1 - len(bench.failures) / max(
            bench.attempted, 1)
        notes["setup_samples_s"] = setup
        units = END_TO_END
    record["fingerprint"]["loadavg_after"] = os.getloadavg()
    return report(bench, metrics, units, notes, record)


def cmd_ablate(bench, ops):
    table = ablate(ops, bench.scratch, bench.args.seconds)
    print(f"ablation on {bench.args.workload} "
          f"({table['rounds']} rounds, configurations paired per op)")
    for config, value in table["sim_kips"].items():
        print(f"  {config:<20} sim_kips {value:10.3f}")
    for name, ratio in table["ratios"].items():
        print(f"  {name:<28} {ratio:.4f}")
    for problem in table["mismatched"]:
        print(f"perfbench: NOT BIT-EQUAL {problem}", file=sys.stderr)
    failed = table["failed"] + len(table["mismatched"])
    correct = failed == 0
    units = {name: "ratio" for name in table["ratios"]}
    print(result_line(correct, table["attempted"], failed,
                      table["ratios"], units))
    return 0 if correct else 1


def cmd_window(bench, ops):
    short, long = SCALES["short"], bench.scale
    short_ops = sweep_ops(bench.args.workload, short, bench.args.seed)
    fit = window_fit(list(zip(short_ops, ops)), bench.scratch,
                     bench.args.seconds)
    print(f"window fit on {bench.args.workload} ({fit['rounds']} rounds, "
          f"{fit['ops']} op pairs): short {short.instructions}"
          f"+{short.warmup}, long {long.instructions}+{long.warmup}")
    for name, value in fit.items():
        if isinstance(value, float):
            print(f"  {name:<28} {value:12.4f}")
    failed = fit["failed"]
    units = {name: "ratio" if name.endswith("share") else
             "kips" if name.endswith("kips") else
             "us" if name.startswith("us_") else "ms"
             for name, value in fit.items() if isinstance(value, float)}
    print(result_line(failed == 0, fit["attempted"], failed,
                      {name: fit[name] for name in units}, units))
    return 0 if failed == 0 else 1


def cmd_write_reference(bench):
    path = bench.args.reference
    if path.exists() and not bench.args.force:
        raise SystemExit(f"perfbench: {path} exists; pass --force to "
                         f"regenerate the reference digests")
    # The scalar reference engine defines the expected results.
    os.environ["REPRO_ENGINE"] = "scalar"
    digests = {}
    for workload in SWEEP_WORKLOADS:
        results = run_sweep(sweep_ops(workload, bench.scale, DEFAULT_SEED),
                            bench.scratch)
        for result in results:
            problem = result.error or sanity_problem(
                result.run, result.op.plan.instructions)
            if problem:
                raise SystemExit(f"perfbench: {result.op.key}: {problem}")
        digests[workload] = {r.op.key: digest(r.run, r.events)
                             for r in results}
        print(f"{workload}: {len(results)} digests")
    write_reference(path, {"engine": "scalar", "seed": DEFAULT_SEED,
                           "scale": bench.scale.to_json(),
                           "digests": digests})
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        isolate_environment(scratch)
        bench = Bench(args, scratch)
        if args.write_reference:
            return cmd_write_reference(bench)
        if args.workload == "table3-warm":
            return cmd_measure(bench, bench.setup_table3())
        ops = bench.setup_sweeps()
        if args.ablate:
            return cmd_ablate(bench, ops)
        if args.window_fit:
            return cmd_window(bench, ops)
        return cmd_measure(bench, ops)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
