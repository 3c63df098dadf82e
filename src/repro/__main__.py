"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's tables and figures, runs individual simulations,
and lists the available models/benchmarks.  All experiment commands go
through the cached runner, so repeated invocations are cheap.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ._version import package_version
from .core.models import MODEL_NAMES, all_models, model
from .core.simulation import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
)
from .faults import FaultSpec, FaultSpecError
from .harness import (
    ExperimentPlan,
    ExperimentRunner,
    ResultCache,
    render_claims,
    render_faultsweep,
    render_figure3,
    render_powersweep,
    render_table,
    render_table3,
    render_table4,
    run_claims,
    run_faultsweep,
    run_figure3,
    run_powersweep,
    run_table3,
    run_table4,
)
from .power import GatingPolicy, GatingSpecError
from .wires import table2_rows
from .workloads.spec2k import BENCHMARK_NAMES, PROFILES


def _positive_workers(text: str) -> int:
    """argparse type: worker count, a whole number >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--workers expects a whole number of processes, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"--workers must be at least 1 (got {value}); use 1 for a "
            f"serial run"
        )
    return value


def _seed(text: str) -> int:
    """argparse type: simulation seed, any integer."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--seed expects an integer (the workload RNG seed), "
            f"got {text!r}"
        ) from None


def _positive_seconds(text: str) -> float:
    """argparse type: a positive wall-clock duration in seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a duration in seconds, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"duration must be positive seconds, got {value:g}"
        )
    return value


def _retries(text: str) -> int:
    """argparse type: retry count, a whole number >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--max-retries expects a whole number, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--max-retries must be non-negative (got {value})"
        )
    return value


def _fault_spec(text: str) -> str:
    """argparse type: fault spec string, normalized to canonical form."""
    try:
        return FaultSpec.parse(text).canonical()
    except FaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _gating_spec(text: str) -> str:
    """argparse type: gating-policy string, normalized to canonical form.

    "never" (and "") normalize to "", the always-on configuration that
    builds no power manager at all.
    """
    try:
        policy = GatingPolicy.parse(text)
    except GatingSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return "" if policy.is_never else policy.canonical()


def _service_fault_spec(text: str) -> str:
    """argparse type: service-level chaos spec, canonicalized."""
    from .service import ServiceFaultSpec, ServiceFaultSpecError

    try:
        return ServiceFaultSpec.parse(text).canonical()
    except ServiceFaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _port(text: str) -> int:
    """argparse type: TCP port (0 picks an ephemeral one)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--port expects a TCP port number, got {text!r}"
        ) from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"--port must be in [0, 65535], got {value}"
        )
    return value


def _add_window_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--instructions", type=int, default=DEFAULT_INSTRUCTIONS,
        help="measured instructions per benchmark",
    )
    parser.add_argument(
        "--warmup", type=int, default=DEFAULT_WARMUP,
        help="warmup instructions per benchmark",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None, metavar="NAME",
        help="benchmark subset (default: all 23)",
    )
    parser.add_argument(
        "--seed", type=_seed, default=DEFAULT_SEED,
        help=f"workload RNG seed (default: {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--workers", type=_positive_workers, default=1, metavar="N",
        help="processes to fan cache misses across (default: 1, serial)",
    )
    parser.add_argument(
        "--run-timeout", type=_positive_seconds, default=None,
        metavar="SECONDS",
        help="kill any single run exceeding this wall clock "
             "(forces crash-isolated workers)",
    )
    parser.add_argument(
        "--max-retries", type=_retries, default=0, metavar="N",
        help="retries (with exponential backoff) for crashed or "
             "timed-out workers before a run is declared failed",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="collect and print telemetry for this invocation "
             "(simulator events for 'run', harness profiling for sweeps)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome-trace JSON (Perfetto / chrome://tracing) "
             "of this invocation to PATH; implies --telemetry",
    )


def _int_tuple(text: str):
    """argparse type: comma-separated integers -> tuple."""
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _budget(text: str) -> int:
    """argparse type: exploration point budget, >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--budget expects a whole number of design points, "
            f"got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"--budget must be at least 1, got {value}"
        )
    return value


def _add_fault_spec_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-spec", type=_fault_spec, default="", metavar="SPEC",
        help="wire-fault injection spec, e.g. "
             "'ber=1e-6;kill=L@*@2000;derate=PW:1.5;retries=4'",
    )


def _add_gating_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gating", type=_gating_spec, default="", metavar="POLICY",
        help="plane gating policy: 'never', "
             "'idle:drowsy=64,gate=256' or "
             "'ewma:halflife=64,thr=0.5' (default: never)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Microarchitectural Wire Management "
                    "for Performance and Power in Partitioned "
                    "Architectures' (HPCA 2005)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the Table 3/4 interconnect models")
    sub.add_parser("benchmarks", help="list the 23 workload profiles")
    sub.add_parser("table2", help="print Table 2 (wire parameters)")

    for name, desc in (
        ("figure3", "regenerate Figure 3 (per-benchmark IPCs)"),
        ("table3", "regenerate Table 3 (4-cluster models)"),
        ("table4", "regenerate Table 4 (16-cluster models)"),
        ("claims", "regenerate the prose claims of Sections 1/4/5.3"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_window_args(p)

    p = sub.add_parser("run", help="simulate one benchmark on one model")
    p.add_argument("--model", default="I", choices=MODEL_NAMES)
    p.add_argument("--benchmark", default="gzip")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--latency-scale", type=float, default=1.0)
    _add_window_args(p)
    _add_fault_spec_arg(p)
    _add_gating_arg(p)

    p = sub.add_parser(
        "faults",
        help="degradation sweep: one model under injected wire faults",
    )
    p.add_argument("--model", default="X", choices=MODEL_NAMES)
    _add_window_args(p)
    _add_fault_spec_arg(p)
    _add_gating_arg(p)

    p = sub.add_parser(
        "power",
        help="plane-gating power sweep: leakage/ED^2/IPC trade-off "
             "table over gating policies (ROADMAP item 5)",
    )
    p.add_argument("--model", default="X", choices=MODEL_NAMES)
    _add_window_args(p)
    _add_fault_spec_arg(p)
    p.add_argument(
        "--gating", type=_gating_spec, default="", metavar="POLICY",
        help="extra gating scenario appended to the default sweep",
    )

    p = sub.add_parser(
        "trace",
        help="trace one simulation: cycle-stamped events, Chrome-trace "
             "JSON export, per-plane/decision-reason summary",
    )
    p.add_argument("model", choices=MODEL_NAMES,
                   help="interconnect model to simulate")
    p.add_argument("--benchmark", default="gzip")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--latency-scale", type=float, default=1.0)
    p.add_argument(
        "--instructions", type=int, default=DEFAULT_INSTRUCTIONS,
        help="measured instructions",
    )
    p.add_argument(
        "--warmup", type=int, default=DEFAULT_WARMUP,
        help="warmup instructions",
    )
    p.add_argument(
        "--seed", type=_seed, default=DEFAULT_SEED,
        help=f"workload RNG seed (default: {DEFAULT_SEED})",
    )
    _add_fault_spec_arg(p)
    _add_gating_arg(p)
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the Chrome-trace JSON here (load in Perfetto or "
             "chrome://tracing)",
    )
    p.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="also stream raw events as JSONL to PATH",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="print the metrics-registry snapshot after the summary",
    )

    p = sub.add_parser(
        "serve",
        help="run the sweep-as-a-service job server (DESIGN.md "
             "section 12): bounded admission, retry budgets, circuit "
             "breaker, resumable jobs",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=_port, default=8642,
                   help="bind port; 0 picks an ephemeral port "
                        "(default: 8642)")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="result cache directory (jobs and chaos state "
                        "live beside it); default: the shared cache")
    p.add_argument("--queue-capacity", type=_positive_workers,
                   default=16, metavar="N",
                   help="admission queue bound; submissions past it "
                        "get 429 + Retry-After (default: 16)")
    p.add_argument("--workers", type=_positive_workers, default=2,
                   metavar="N",
                   help="crash-isolated worker processes per job "
                        "(default: 2)")
    p.add_argument("--run-timeout", type=_positive_seconds,
                   default=300.0, metavar="SECONDS",
                   help="kill any single run past this wall clock "
                        "(default: 300)")
    p.add_argument("--max-retries", type=_retries, default=2,
                   metavar="N",
                   help="per-run retries inside a sweep (default: 2)")
    p.add_argument("--job-retries", type=_retries, default=1,
                   metavar="N",
                   help="whole-job requeue budget after crash/timeout "
                        "failures (default: 1)")
    p.add_argument("--breaker-window", type=_positive_workers,
                   default=20, metavar="N",
                   help="run outcomes in the breaker's sliding window "
                        "(default: 20)")
    p.add_argument("--breaker-threshold", type=float, default=0.5,
                   metavar="FRACTION",
                   help="crash fraction that trips the breaker into "
                        "cache-only mode (default: 0.5)")
    p.add_argument("--breaker-cooldown", type=_positive_seconds,
                   default=30.0, metavar="SECONDS",
                   help="OPEN dwell before a half-open probe "
                        "(default: 30)")
    p.add_argument("--service-faults", type=_service_fault_spec,
                   default="", metavar="SPEC",
                   help="chaos injection spec, e.g. "
                        "'kill-run=1;stall-dispatch=0.5;drop-conn=2'")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job log lines")

    p = sub.add_parser(
        "submit",
        help="submit a model x benchmark sweep to a running server",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8642)
    p.add_argument("--models", nargs="+", default=["I"],
                   choices=MODEL_NAMES, metavar="MODEL",
                   help="interconnect models to sweep (default: I)")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--latency-scale", type=float, default=1.0)
    p.add_argument("--priority", type=int, default=0,
                   help="admission priority (higher dequeues first)")
    p.add_argument("--retry-budget", type=_retries, default=None,
                   metavar="N",
                   help="override the server's job requeue budget")
    p.add_argument("--no-wait", action="store_true",
                   help="return after admission instead of polling "
                        "the job to completion")
    p.add_argument("--timeout", type=_positive_seconds, default=600.0,
                   metavar="SECONDS",
                   help="when waiting, give up after this long "
                        "(default: 600)")
    _add_window_args(p)
    _add_fault_spec_arg(p)
    _add_gating_arg(p)

    p = sub.add_parser(
        "explore",
        help="design-space exploration: node-scaled wire catalogs and "
             "the ED^2 Pareto frontier over heterogeneous plane mixes "
             "(DESIGN.md section 14)",
    )
    p.add_argument("--nodes", type=_int_tuple, default=(45, 32, 22),
                   metavar="NM,NM,...",
                   help="technology nodes to search, in nm "
                        "(default: 45,32,22)")
    p.add_argument("--budget", type=_budget, default=64, metavar="N",
                   help="max design points to evaluate; larger spaces "
                        "fall back to seeded sampling + refinement "
                        "(default: 64)")
    p.add_argument("--topologies", default="xbar4",
                   metavar="TOPO,TOPO,...",
                   help="topologies to search: xbar4 and/or ring16 "
                        "(default: xbar4)")
    p.add_argument("--b-wires", type=_int_tuple, default=(144, 288),
                   metavar="N,N,...",
                   help="B-Wire count options, bidirectional totals "
                        "(default: 144,288)")
    p.add_argument("--pw-wires", type=_int_tuple, default=(0, 288),
                   metavar="N,N,...",
                   help="PW-Wire count options; 0 = no plane "
                        "(default: 0,288)")
    p.add_argument("--l-wires", type=_int_tuple, default=(0, 36),
                   metavar="N,N,...",
                   help="L-Wire count options; 0 = no plane "
                        "(default: 0,36)")
    p.add_argument("--gating", type=_gating_spec, nargs="*",
                   default=None, metavar="POLICY",
                   help="gating-policy axis, space-separated (e.g. "
                        "--gating never 'idle:drowsy=64,gate=256'); "
                        "default: ungated only")
    p.add_argument("--fraction", type=float, default=0.2,
                   metavar="F",
                   help="interconnect share of baseline chip energy "
                        "(the paper's tables use 0.10/0.20; "
                        "default: 0.2)")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="also write every evaluated point "
                        "(dominance-ranked) as CSV to PATH")
    p.add_argument("--submit", action="store_true",
                   help="route plan waves through a running "
                        "'repro serve' instead of simulating locally")
    p.add_argument("--host", default="127.0.0.1",
                   help="sweep-service host for --submit")
    p.add_argument("--port", type=_port, default=8642,
                   help="sweep-service port for --submit")
    p.add_argument("--timeout", type=_positive_seconds, default=600.0,
                   metavar="SECONDS",
                   help="per-wave wait when submitting (default: 600)")
    _add_window_args(p)

    p = sub.add_parser(
        "status",
        help="show a job's status, or server health with no job id",
    )
    p.add_argument("job_id", nargs="?", default=None,
                   help="job to inspect (omit for server health + "
                        "job list)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8642)

    # "lint" is dispatched before parsing (its arguments belong to the
    # simlint parser); registered here so it shows up in --help.
    sub.add_parser(
        "lint",
        help="simlint: simulator-invariant static analysis "
             "(see 'repro lint --list-rules')",
    )
    return parser


def _cmd_models() -> str:
    rows = [
        [m.name, m.description, f"{m.relative_metal_area():.1f}"]
        for m in all_models()
    ]
    return render_table(["Model", "Link composition", "Rel metal area"],
                        rows, title="Interconnect models (Tables 3-4):")


def _cmd_benchmarks() -> str:
    rows = [
        [name, "fp" if PROFILES[name].fp_frac > 0 else "int",
         f"{PROFILES[name].working_set_kb} KB"]
        for name in BENCHMARK_NAMES
    ]
    return render_table(["Benchmark", "Kind", "Working set"], rows,
                        title="Synthetic SPEC2k-like workloads:")


def _cmd_table2() -> str:
    rows = [
        [f"{r.wire_class.value}-Wires", f"{r.relative_delay:.1f}",
         r.crossbar_latency, r.ring_hop_latency,
         f"{r.relative_leakage:.2f}", f"{r.relative_dynamic:.2f}"]
        for r in table2_rows()
    ]
    return render_table(
        ["Wire", "Rel delay", "Crossbar", "Ring hop", "Rel leakage",
         "Rel dynamic"],
        rows, title="Table 2: wire implementations",
    )


def _wants_telemetry(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "telemetry", False)
                or getattr(args, "trace_out", None))


def _make_runner(args: argparse.Namespace,
                 profiler=None) -> ExperimentRunner:
    cache = ResultCache(enabled=not args.no_cache)
    return ExperimentRunner(
        cache=cache, workers=args.workers,
        run_timeout=getattr(args, "run_timeout", None),
        max_retries=getattr(args, "max_retries", 0),
        profiler=profiler,
    )


def _traced_simulation(model_name: str, benchmark: str, clusters: int,
                       latency_scale: float, instructions: int,
                       warmup: int, seed: int, fault_spec: str,
                       gating: str = ""):
    """One telemetry-enabled simulation; returns (run, telemetry)."""
    from .core.simulation import simulate_benchmark
    from .telemetry import RingBufferSink, Telemetry

    telemetry = Telemetry(enabled=True,
                          sink=RingBufferSink(capacity=None))
    run = simulate_benchmark(
        model(model_name).config, benchmark,
        instructions=instructions, warmup=warmup,
        num_clusters=clusters, seed=seed,
        latency_scale=latency_scale,
        fault_spec=fault_spec or None, telemetry=telemetry,
        gating=gating or None,
    )
    return run, telemetry


def _cmd_trace(args: argparse.Namespace) -> str:
    from .telemetry import (
        JsonlSink,
        render_summary,
        summarize,
        write_chrome_trace,
    )

    run, telemetry = _traced_simulation(
        args.model, args.benchmark, args.clusters, args.latency_scale,
        args.instructions, args.warmup, args.seed, args.fault_spec,
        args.gating,
    )
    events = list(telemetry.events())
    lines = [
        f"traced model {args.model} / {args.benchmark}: "
        f"{run.instructions} instructions, {run.cycles} cycles, "
        f"IPC {run.ipc:.3f}",
        "",
        render_summary(summarize(events), cycles=run.cycles),
    ]
    if args.out:
        metadata = {
            "model": args.model,
            "benchmark": args.benchmark,
            "seed": args.seed,
            "fault_spec": args.fault_spec,
            "gating": args.gating,
        }
        write_chrome_trace(args.out, events, metadata=metadata)
        lines.append("")
        lines.append(f"chrome trace written to {args.out} "
                     f"(load in Perfetto or chrome://tracing)")
    if args.events_out:
        with JsonlSink(args.events_out) as sink:
            for event in events:
                sink.emit(event)
        lines.append(f"raw events written to {args.events_out} (JSONL)")
    if args.metrics:
        lines.append("")
        lines.append(telemetry.metrics.render())
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> str:
    if _wants_telemetry(args):
        return _cmd_run_traced(args)
    runner = _make_runner(args)
    plan = ExperimentPlan(
        model_name=args.model, benchmark=args.benchmark,
        num_clusters=args.clusters, latency_scale=args.latency_scale,
        instructions=args.instructions, warmup=args.warmup,
        seed=args.seed, fault_spec=args.fault_spec,
        gating_policy=args.gating,
    )
    run = runner.run_many([plan])[plan]
    lines = [
        f"model {args.model} ({model(args.model).description}), "
        f"{args.clusters} clusters, benchmark {args.benchmark}",
        f"IPC {run.ipc:.3f}  ({run.instructions} instructions, "
        f"{run.cycles} cycles)",
        f"interconnect dynamic energy (rel units) "
        f"{run.interconnect_dynamic:.0f}",
    ]
    extra = run.extra_stats()
    lines.append(
        f"redirects {extra['redirects']:.0f}, "
        f"false LS-bit deps {extra['false_dependences']:.0f}, "
        f"narrow coverage {extra['narrow_coverage']:.1%}"
    )
    if args.fault_spec:
        lines.append(
            f"faults ({args.fault_spec}): "
            f"retransmissions {extra.get('retransmissions', 0):.0f}, "
            f"escalations {extra.get('retry_escalations', 0):.0f}, "
            f"reroutes {extra.get('degraded_reroutes', 0):.0f}, "
            f"degraded selections "
            f"{extra.get('degraded_selections', 0):.0f}, "
            f"planes killed {extra.get('planes_killed', 0):.0f}"
        )
    if args.gating:
        lines.append(
            f"gating ({args.gating}): "
            f"leakage (rel units) {run.interconnect_leakage:.0f}, "
            f"wakes {extra.get('plane_wakes', 0):.0f}, "
            f"gate entries {extra.get('plane_gate_events', 0):.0f}, "
            f"gated share "
            f"{extra.get('gated_wire_cycle_share', 0):.1%}, "
            f"wake energy {extra.get('wake_energy', 0):.1f}"
        )
    return "\n".join(lines)


def _cmd_run_traced(args: argparse.Namespace) -> str:
    """``run --telemetry``: simulate live (uncached) with a tracer.

    Telemetry never changes a reproduced number, so the printed IPC and
    energy figures match the cached path for the same plan.
    """
    from .telemetry import render_summary, summarize, write_chrome_trace

    run, telemetry = _traced_simulation(
        args.model, args.benchmark, args.clusters, args.latency_scale,
        args.instructions, args.warmup, args.seed, args.fault_spec,
        args.gating,
    )
    lines = [
        f"model {args.model} ({model(args.model).description}), "
        f"{args.clusters} clusters, benchmark {args.benchmark}",
        f"IPC {run.ipc:.3f}  ({run.instructions} instructions, "
        f"{run.cycles} cycles)",
        f"interconnect dynamic energy (rel units) "
        f"{run.interconnect_dynamic:.0f}",
        "",
        render_summary(summarize(telemetry.events()), cycles=run.cycles),
    ]
    if args.trace_out:
        write_chrome_trace(args.trace_out, telemetry.events(),
                           metadata={"model": args.model,
                                     "benchmark": args.benchmark})
        lines.append("")
        lines.append(f"chrome trace written to {args.trace_out}")
    return "\n".join(lines)


def _cmd_faults(args: argparse.Namespace,
                runner: ExperimentRunner) -> str:
    from .harness.faultsweep import DEFAULT_SCENARIOS, FaultScenario

    scenarios = list(DEFAULT_SCENARIOS)
    if args.fault_spec:
        scenarios.append(FaultScenario(label="custom",
                                       spec=args.fault_spec))
    result = run_faultsweep(
        runner, model_name=args.model, scenarios=scenarios,
        benchmarks=args.benchmarks, instructions=args.instructions,
        warmup=args.warmup, seed=args.seed,
        gating_policy=args.gating, workers=args.workers,
    )
    return render_faultsweep(result)


def _cmd_power(args: argparse.Namespace,
               runner: ExperimentRunner) -> str:
    from .harness.powersweep import (
        DEFAULT_GATING_SCENARIOS,
        GatingScenario,
    )

    scenarios = list(DEFAULT_GATING_SCENARIOS)
    if args.gating:
        scenarios.append(GatingScenario(label="custom",
                                        policy=args.gating))
    result = run_powersweep(
        runner, model_name=args.model, scenarios=scenarios,
        benchmarks=args.benchmarks, instructions=args.instructions,
        warmup=args.warmup, seed=args.seed,
        fault_spec=args.fault_spec, workers=args.workers,
    )
    return render_powersweep(result)


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .service import CircuitBreaker, SweepService, run_service

    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    service = SweepService(
        cache_dir=cache_dir, host=args.host, port=args.port,
        queue_capacity=args.queue_capacity, workers=args.workers,
        run_timeout=args.run_timeout, max_retries=args.max_retries,
        job_retry_budget=args.job_retries,
        breaker=CircuitBreaker(window=args.breaker_window,
                               threshold=args.breaker_threshold,
                               cooldown=args.breaker_cooldown),
        faults=args.service_faults or None,
        verbose=not args.quiet,
    )
    run_service(service)
    return 0


def _submit_plans(args: argparse.Namespace) -> List[ExperimentPlan]:
    benchmarks = args.benchmarks or list(BENCHMARK_NAMES)
    return [
        ExperimentPlan(
            model_name=model_name, benchmark=benchmark,
            num_clusters=args.clusters,
            latency_scale=args.latency_scale,
            instructions=args.instructions, warmup=args.warmup,
            seed=args.seed, fault_spec=args.fault_spec,
            gating_policy=args.gating,
        )
        for model_name in args.models
        for benchmark in benchmarks
    ]


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import Backpressure, ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    plans = _submit_plans(args)
    try:
        if args.no_wait:
            job = client.submit(plans, priority=args.priority,
                                retry_budget=args.retry_budget)
        else:
            job = client.submit_and_wait(
                plans, priority=args.priority,
                retry_budget=args.retry_budget, timeout=args.timeout,
            )
    except Backpressure as exc:
        print(f"rejected: {exc.message} (Retry-After: "
              f"{exc.retry_after}s)", file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"submission failed: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc} "
              f"(is 'repro serve' running?)", file=sys.stderr)
        return 2
    print(f"job {job['job_id']}: {job['state']} "
          f"({job['plans']} plan(s), attempt {job['attempts']})")
    summary = job.get("summary")
    if summary:
        print(f"  executed {summary['executed']}, "
              f"cache hits {summary['cache_hits']}, "
              f"failed {summary['failed']}")
    if job.get("manifest"):
        print(job["manifest"])
    return 0 if job["state"] in ("queued", "running", "done") else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.job_id:
            job = client.job(args.job_id)
            print(f"job {job['job_id']}: {job['state']} "
                  f"({job['plans']} plan(s), attempt "
                  f"{job['attempts']}/{job['retry_budget'] + 1})")
            summary = job.get("summary")
            if summary:
                print(f"  executed {summary['executed']}, "
                      f"cache hits {summary['cache_hits']}, "
                      f"failed {summary['failed']}")
            if job.get("manifest"):
                print(job["manifest"])
            return 0 if job["state"] != "failed" else 1
        health = client.health()
        print(f"server {args.host}:{args.port}: "
              f"breaker {health['breaker']} "
              f"(crash rate {health['crash_rate']:.0%}), "
              f"queue {health['queue_depth']}/"
              f"{health['queue_capacity']}, "
              f"{health['jobs']} job(s) known")
        for job in client.jobs():
            print(f"  {job['job_id']}  {job['state']:<9s} "
                  f"{job['plans']} plan(s)")
        return 0
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc} "
              f"(is 'repro serve' running?)", file=sys.stderr)
        return 2


def _cmd_explore(args: argparse.Namespace) -> int:
    from .explore import (
        TOPOLOGIES,
        EvaluationSettings,
        SearchSpace,
        explore,
        runner_executor,
        service_executor,
    )
    from .explore.report import frontier_table, to_csv

    topologies = tuple(
        part for part in args.topologies.split(",") if part
    )
    unknown = [t for t in topologies if t not in TOPOLOGIES]
    if unknown:
        print(f"unknown topology {unknown[0]!r}; choose from "
              f"{', '.join(sorted(TOPOLOGIES))}", file=sys.stderr)
        return 2
    gating_policies = ("",)
    if args.gating is not None:
        # Canonicalized by the argparse type; dedupe preserving order.
        gating_policies = tuple(dict.fromkeys(args.gating)) or ("",)
    try:
        space = SearchSpace(
            nodes=tuple(args.nodes),
            b_options=tuple(args.b_wires),
            pw_options=tuple(args.pw_wires),
            l_options=tuple(args.l_wires),
            topologies=topologies,
            gating_policies=gating_policies,
        )
    except ValueError as exc:
        print(f"bad search space: {exc}", file=sys.stderr)
        return 2
    settings = EvaluationSettings(
        benchmarks=tuple(args.benchmarks or BENCHMARK_NAMES),
        instructions=args.instructions, warmup=args.warmup,
        seed=args.seed, interconnect_fraction=args.fraction,
    )

    profiler = None
    if _wants_telemetry(args):
        from .harness.profiling import HarnessProfiler

        profiler = HarnessProfiler()

    if args.submit:
        from .service import ServiceClient

        client = ServiceClient(host=args.host, port=args.port)
        execute = service_executor(client, timeout=args.timeout)
    else:
        runner = _make_runner(args, profiler=profiler)
        execute = runner_executor(runner, workers=args.workers)

    try:
        result = explore(space, settings, execute,
                         budget=args.budget, seed=args.seed,
                         profiler=profiler)
    except Exception as exc:
        if args.submit:
            from .service import Backpressure, ServiceError

            if isinstance(exc, Backpressure):
                print(f"rejected: {exc.message} (Retry-After: "
                      f"{exc.retry_after}s)", file=sys.stderr)
                return 3
            if isinstance(exc, ServiceError):
                print(f"exploration failed: {exc}", file=sys.stderr)
                return 2
            if isinstance(exc, (ConnectionError, OSError)):
                print(f"cannot reach {args.host}:{args.port}: {exc} "
                      f"(is 'repro serve' running?)", file=sys.stderr)
                return 2
        raise

    print(frontier_table(result))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(to_csv(result))
        print(f"wrote {len(result.evaluated)} evaluated point(s) "
              f"to {args.csv}")
    _finish_profiled(args, profiler)
    return 1 if result.failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    # CLI runs default to the event-driven fast engine; REPRO_ENGINE in
    # the environment (e.g. "scalar") still wins.  The override is
    # scoped to this invocation so in-process callers (tests, notebooks)
    # don't inherit a mutated environment.
    preset = "REPRO_ENGINE" in os.environ
    os.environ.setdefault("REPRO_ENGINE", "event")
    try:
        return _main(argv)
    finally:
        if not preset:
            os.environ.pop("REPRO_ENGINE", None)


def _main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The linter owns its argument surface (paths, --format,
        # --baseline, ...); forward everything after "lint" verbatim
        # instead of teaching argparse to ignore it.
        from .analysis.simlint import main as simlint_main

        return simlint_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "models":
        print(_cmd_models())
        return 0
    if command == "benchmarks":
        print(_cmd_benchmarks())
        return 0
    if command == "table2":
        print(_cmd_table2())
        return 0
    if command == "run":
        print(_cmd_run(args))
        return 0
    if command == "trace":
        print(_cmd_trace(args))
        return 0
    if command == "serve":
        return _cmd_serve(args)
    if command == "submit":
        return _cmd_submit(args)
    if command == "status":
        return _cmd_status(args)
    if command == "explore":
        return _cmd_explore(args)

    # Sweep commands: --telemetry/--trace-out attach a wall-clock
    # harness profiler (cache probes, runs, workers) to the runner.
    profiler = None
    if _wants_telemetry(args):
        from .harness.profiling import HarnessProfiler

        profiler = HarnessProfiler()
    runner = _make_runner(args, profiler=profiler)

    if command == "faults":
        print(_cmd_faults(args, runner))
        return _finish_profiled(args, profiler)

    if command == "power":
        print(_cmd_power(args, runner))
        return _finish_profiled(args, profiler)

    kwargs = dict(benchmarks=args.benchmarks,
                  instructions=args.instructions, warmup=args.warmup,
                  seed=args.seed)
    if command == "figure3":
        print(render_figure3(run_figure3(runner, **kwargs)))
    elif command == "table3":
        print(render_table3(run_table3(runner, **kwargs)))
    elif command == "table4":
        print(render_table4(run_table4(runner, **kwargs)))
    elif command == "claims":
        print(render_claims(run_claims(runner, **kwargs)))
    else:  # pragma: no cover - argparse guards this
        return 2
    return _finish_profiled(args, profiler)


def _finish_profiled(args: argparse.Namespace, profiler) -> int:
    if profiler is not None:
        print(profiler.summary())
        trace_out = getattr(args, "trace_out", None)
        if trace_out:
            profiler.write(trace_out)
            print(f"harness trace written to {trace_out} "
                  f"(load in Perfetto or chrome://tracing)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro models | head`
        sys.exit(0)
