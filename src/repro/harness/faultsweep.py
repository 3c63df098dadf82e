"""Degradation sweep: the heterogeneous model under injected wire faults.

Runs one interconnect model over a set of fault scenarios -- fault-free,
transient bit-error rates, permanent plane kills -- and tabulates IPC
and interconnect energy against the degradation counters, so the cost of
losing (say) the L-Wire plane is a one-command answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.defaults import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from ..core.metrics import BenchmarkRun
from ..faults import FaultSpec
from .formatting import render_table
from .runner import ExperimentPlan, ExperimentRunner, SweepReport

#: Benchmarks with distinct traffic mixes: cache-heavy, ILP-heavy,
#: narrow-operand-heavy.
DEFAULT_BENCHMARKS: Tuple[str, ...] = ("gzip", "mcf", "art")


@dataclass(frozen=True)
class FaultScenario:
    """One named fault configuration to sweep."""

    label: str
    spec: str  # canonical FaultSpec string; "" = fault-free

    def canonical(self) -> str:
        return FaultSpec.parse(self.spec).canonical() if self.spec else ""


DEFAULT_SCENARIOS: Tuple[FaultScenario, ...] = (
    FaultScenario("fault-free", ""),
    FaultScenario("ber 1e-6", "ber=1e-6"),
    FaultScenario("ber 1e-5", "ber=1e-5"),
    FaultScenario("L-plane kill", "kill=L@*@2000"),
    FaultScenario("B-plane kill", "kill=B@*@2000"),
)


@dataclass(frozen=True)
class FaultSweepResult:
    """Aggregated rows of one degradation sweep."""

    model_name: str
    rows: Tuple[Tuple[FaultScenario, Tuple[BenchmarkRun, ...]], ...]
    report: SweepReport

    def baseline_ipc(self) -> Optional[float]:
        for scenario, runs in self.rows:
            if not scenario.spec and runs:
                return _mean(r.ipc for r in runs)
        return None


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_faultsweep(runner: Optional[ExperimentRunner] = None,
                   model_name: str = "X",
                   scenarios: Sequence[FaultScenario] = DEFAULT_SCENARIOS,
                   benchmarks: Optional[Sequence[str]] = None,
                   num_clusters: int = 4,
                   instructions: int = DEFAULT_INSTRUCTIONS,
                   warmup: int = DEFAULT_WARMUP,
                   seed: int = 42,
                   gating_policy: str = "",
                   workers: Optional[int] = None) -> FaultSweepResult:
    """Sweep ``model_name`` across the fault scenarios.

    ``gating_policy`` (optional, canonical string) applies one plane
    gating configuration to every scenario, so degradation can be
    measured on a power-managed interconnect.  Uses
    :meth:`ExperimentRunner.run_many_report`, so a scenario whose
    worker crashes or times out drops into the report's failure manifest
    instead of sinking the whole sweep.
    """
    runner = runner or ExperimentRunner()
    names = tuple(benchmarks or DEFAULT_BENCHMARKS)
    plans = {
        scenario: [
            ExperimentPlan(
                model_name=model_name, benchmark=bench,
                num_clusters=num_clusters, instructions=instructions,
                warmup=warmup, seed=seed,
                fault_spec=scenario.canonical(),
                gating_policy=gating_policy,
            )
            for bench in names
        ]
        for scenario in scenarios
    }
    report = runner.run_many_report(
        [plan for per_scenario in plans.values() for plan in per_scenario],
        workers=workers,
    )
    rows = tuple(
        (scenario,
         tuple(report.results[p] for p in per_scenario
               if p in report.results))
        for scenario, per_scenario in plans.items()
    )
    return FaultSweepResult(model_name=model_name, rows=rows,
                            report=report)


def render_faultsweep(result: FaultSweepResult) -> str:
    """Degradation-vs-IPC/energy table, plus any failure manifest."""
    headers = ["Scenario", "Fault spec", "IPC", "dIPC", "Energy",
               "retx", "escal", "reroutes", "killed"]
    base_ipc = result.baseline_ipc()
    base_energy = None
    for scenario, runs in result.rows:
        if not scenario.spec and runs:
            base_energy = _mean(
                r.interconnect_dynamic + r.interconnect_leakage
                for r in runs
            )
            break
    rows: List[List] = []
    for scenario, runs in result.rows:
        if not runs:
            rows.append([scenario.label, scenario.spec or "(none)",
                         "FAILED", "-", "-", "-", "-", "-", "-"])
            continue
        ipc = _mean(r.ipc for r in runs)
        energy = _mean(
            r.interconnect_dynamic + r.interconnect_leakage for r in runs
        )
        stats = [r.extra_stats() for r in runs]

        def total(key: str) -> float:
            return sum(s.get(key, 0.0) for s in stats)

        rows.append([
            scenario.label, scenario.spec or "(none)", f"{ipc:.4f}",
            (f"{(ipc / base_ipc - 1) * 100:+.1f}%"
             if base_ipc else "n/a"),
            (f"{100 * energy / base_energy:.0f}"
             if base_energy else "n/a"),
            f"{total('retransmissions'):.0f}",
            f"{total('retry_escalations'):.0f}",
            f"{total('degraded_reroutes'):.0f}",
            f"{total('planes_killed'):.0f}",
        ])
    text = render_table(
        headers, rows,
        title=(f"Fault-injection degradation sweep, model "
               f"{result.model_name} (IPC and energy are means over the "
               f"benchmark set; energy relative to fault-free = 100)"),
    )
    manifest = result.report.manifest()
    if manifest:
        text += "\n\n" + manifest
    return text
