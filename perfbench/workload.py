"""The benchmark's workloads and the operations it times.

An *op* is the unit the benchmark times from outside the program:

* on the sweep workloads, one plan's run through
  ``ExperimentRunner.run_many_report`` into an empty temporary cache,
  or, for the traced mode of ``sweep-degraded``, one
  ``simulate_benchmark`` call with a ``Telemetry`` handle (plans carry
  no telemetry);
* on ``table3-warm``, one ``python -m repro table3`` subprocess over a
  result cache filled during set-up.

Load is one closed-loop client: the next op starts when the previous
one has returned.

An op's time is the host CPU time it used: this process's, plus that
of any child it reaped (the CLI child of a ``table3-warm`` op).  On a
shared virtual machine, wall time also counts the time the hypervisor
gives other guests (steal), which this benchmark's runs cannot
control; the wall time of every op is kept beside it.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ProcessorConfig
from repro.core.metrics import BenchmarkRun
from repro.core.models import MODEL_NAMES, model
from repro.core.simulation import simulate_benchmark
from repro.faults import FaultSpec
from repro.harness.profiling import HarnessProfiler
from repro.harness.runner import ExperimentPlan, ExperimentRunner, ResultCache
from repro.power import GatingPolicy
from repro.telemetry import EventSink, Telemetry
from repro.workloads.annotate import annotated_trace

SWEEP_WORKLOADS = ("sweep-4cl", "sweep-16cl", "sweep-degraded")
WORKLOADS = SWEEP_WORKLOADS + ("table3-warm",)

#: Degraded modes, rotated over the plans of ``sweep-degraded``.
MODES = ("traced", "faulted", "gated")
#: Window of the set-up's warm ops.
WARM_WINDOW = 50
FAULT_SPEC = FaultSpec.parse("ber=1e-4").canonical()
GATING_POLICY = GatingPolicy.parse("idle:drowsy=64,gate=256").canonical()


@dataclass(frozen=True)
class Scale:
    """How much work one sweep (or one CLI invocation) is."""

    name: str
    models: Tuple[str, ...]
    #: Integer/FP crossed with cache-resident/memory-bound profiles.
    benchmarks: Tuple[str, ...]
    #: Plan seeds per benchmark, derived from the workload seed.
    seeds: int
    instructions: int
    warmup: int
    #: Window of the plans ``table3-warm`` serves from its cache; read
    #: cost depends on the entry count, not on the window.
    cli_instructions: int
    cli_warmup: int

    def to_json(self) -> Dict[str, object]:
        return {**asdict(self), "models": list(self.models),
                "benchmarks": list(self.benchmarks)}


#: Models I (B-wires only, the baseline) and X (B, PW and L wires, the
#: richest interconnect); gzip, mesa: integer and FP, cache-resident;
#: mcf, art: integer and FP, memory-bound.
MODELS = ("I", "X")
BENCHMARKS = ("gzip", "mesa", "mcf", "art")

SCALES = {
    # The CLI's and the library's default window (12000 + 3000 with
    # ``REPRO_INSTRUCTIONS`` / ``REPRO_WARMUP`` unset), so an op costs
    # what it costs in the sweeps users run.
    "default": Scale("default", MODELS, BENCHMARKS, 3, 12000, 3000, 200,
                     50),
    # The same plans at a twelfth of the window: ``--window-fit``
    # compares it with the default to size the fixed cost of an op.
    "short": Scale("short", MODELS, BENCHMARKS, 3, 1000, 250, 200, 50),
    # For the benchmark's own smoke test only.
    "tiny": Scale("tiny", MODELS, ("gzip", "mcf", "art"), 2, 120, 40, 60,
                  20),
}


@dataclass(frozen=True)
class Op:
    key: str
    plan: ExperimentPlan
    mode: str = "plain"


def cpu_clock() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class OpResult:
    op: Op
    #: Wall clock (``time.perf_counter``) at the op's start and end.
    start: float
    end: float
    #: Host CPU seconds the op used.
    seconds: float
    run: Optional[BenchmarkRun] = None
    #: Telemetry events emitted (traced ops only).
    events: Optional[int] = None
    error: str = ""

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def committed(self) -> int:
        """Committed instructions, warm-up counted at its requested size."""
        return 0 if self.run is None else (self.run.instructions
                                           + self.op.plan.warmup)


class CountingSink(EventSink):
    """Counts telemetry events without keeping them."""

    def __init__(self) -> None:
        self.emitted = 0

    def emit(self, event) -> None:
        self.emitted += 1


def sweep_ops(workload: str, scale: Scale, seed: int) -> List[Op]:
    """Every plan of a sweep workload, benchmark-major.

    Each benchmark runs under ``scale.seeds`` plan seeds, ``seed *
    scale.seeds + k``: one trace seed can change a plan's simulated
    cycles several times over, and the plan seeds average that out.
    The models take turns, so each benchmark meets both.
    """
    clusters = 16 if workload == "sweep-16cl" else 4
    ops = []
    for b, bench in enumerate(scale.benchmarks):
        for k in range(scale.seeds):
            name = scale.models[(b + k) % len(scale.models)]
            plan = ExperimentPlan(
                model_name=name, benchmark=bench, num_clusters=clusters,
                instructions=scale.instructions, warmup=scale.warmup,
                seed=seed * scale.seeds + k)
            mode = "plain"
            if workload == "sweep-degraded":
                # (b + k) so that every benchmark meets every mode.
                mode = MODES[(b + k) % len(MODES)]
                if mode == "faulted":
                    plan = replace(plan, fault_spec=FAULT_SPEC)
                elif mode == "gated":
                    plan = replace(plan, gating_policy=GATING_POLICY)
            key = f"{name}/{bench}/s{plan.seed}/{clusters}cl"
            ops.append(Op(key if mode == "plain" else f"{key}/{mode}",
                          plan, mode))
    return ops


def warm_ops(ops: Sequence[Op]) -> List[Op]:
    """One short op per benchmark, for the per-process caches that do
    not depend on the window or the seed (prewarm cache images, lazy
    imports)."""
    seen: Dict[str, Op] = {}
    for op in ops:
        if op.plan.benchmark not in seen:
            plan = replace(op.plan, instructions=WARM_WINDOW,
                           warmup=WARM_WINDOW)
            seen[op.plan.benchmark] = replace(op, plan=plan)
    return list(seen.values())


def annotate_traces(ops: Sequence[Op]) -> None:
    """Grow each op's annotated trace to cover its whole run.

    A run fetches at most its committed instructions (each phase stops
    within a commit group of its target) plus what is in flight: the
    ROB, the fetch queue and one fetch group.
    """
    for op in ops:
        config = ProcessorConfig(num_clusters=op.plan.num_clusters)
        fetched = (op.plan.instructions + op.plan.warmup
                   + 2 * config.commit_width + config.rob_size
                   + config.fetch_queue_size + config.fetch_width)
        annotated_trace(op.plan.benchmark, op.plan.seed,
                        config.icache_size_kb,
                        config.icache_assoc).ensure(fetched)


def _run_traced(op: Op) -> Tuple[BenchmarkRun, int]:
    plan = op.plan
    sink = CountingSink()
    run = simulate_benchmark(
        model(plan.model_name).config, plan.benchmark,
        instructions=plan.instructions, warmup=plan.warmup,
        num_clusters=plan.num_clusters, seed=plan.seed,
        telemetry=Telemetry(sink=sink))
    return run, sink.emitted


def run_op(op: Op, runner: ExperimentRunner) -> OpResult:
    start, cpu = time.perf_counter(), cpu_clock()
    if op.mode == "traced":
        try:
            run, events = _run_traced(op)
        # An op that raises is a failed op, not the end of the run.
        except Exception as exc:
            return OpResult(op, start, time.perf_counter(),
                            cpu_clock() - cpu,
                            error=f"{type(exc).__name__}: {exc}")
        return OpResult(op, start, time.perf_counter(), cpu_clock() - cpu,
                        run, events)
    report = runner.run_many_report([op.plan])
    end, cpu = time.perf_counter(), cpu_clock() - cpu
    if report.failures:
        return OpResult(op, start, end, cpu,
                        error=report.failures[0].describe())
    return OpResult(op, start, end, cpu, report.results[op.plan])


def run_sweep(ops: Sequence[Op], scratch: Path,
              profiler: Optional[HarnessProfiler] = None,
              on_op=None) -> List[OpResult]:
    """Run ``ops`` serially into a fresh, empty temporary cache."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    try:
        cache = ResultCache(directory=Path(cache_dir), enabled=True)
        runner = ExperimentRunner(cache=cache, verbose=False, workers=1,
                                  profiler=profiler)
        results = []
        for op in ops:
            results.append(run_op(op, runner))
            if on_op is not None:
                on_op(results[-1])
        return results
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# -- table3-warm -------------------------------------------------------------

#: Output lines of ``repro table3`` that are progress or profiling
#: chatter rather than the table itself.
_CHATTER = ("  running ", "  sweep:", "profiler:", "harness trace written")


def table_text(stdout: str) -> str:
    return "\n".join(line for line in stdout.splitlines()
                     if not line.startswith(_CHATTER))


def cli_table3(scale: Scale, seed: int) -> List[str]:
    """The ``repro table3`` arguments of one ``table3-warm`` op."""
    return ["table3", "--benchmarks", *scale.benchmarks,
            "--instructions", str(scale.cli_instructions),
            "--warmup", str(scale.cli_warmup), "--seed", str(seed)]


def cli_requested(scale: Scale) -> int:
    """Instructions (warm-up included) one table3 invocation serves."""
    return (len(MODEL_NAMES) * len(scale.benchmarks)
            * (scale.cli_instructions + scale.cli_warmup))


@dataclass
class CliResult:
    start: float
    end: float
    returncode: int
    stdout: str
    stderr: str
    #: Peak resident set of the child, in KiB.
    maxrss_kb: int
    #: CPU seconds the child used.
    seconds: float

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_python(args: Sequence[str], env: Dict[str, str], scratch: Path,
               timeout: float = 150.0) -> CliResult:
    """Run ``python <args>`` to completion, recording its own peak RSS
    and CPU time.

    ``os.wait4`` reaps the child so its rusage is the child's alone,
    not the maximum over every child this process ever waited for.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env,
                                stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted: never leave the child running.
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliResult(start, end, proc.returncode,
                         out.read().decode(), err.read().decode(),
                         usage.ru_maxrss,
                         usage.ru_utime + usage.ru_stime)


def cli_env(src: Path, cache_dir: Optional[Path]) -> Dict[str, str]:
    """The environment of a ``repro`` child: only temporary caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # Let the CLI pick its own engine, as a user's invocation would.
    env.pop("REPRO_ENGINE", None)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env
