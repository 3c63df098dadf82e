"""Power sweep: the heterogeneous model under plane gating policies.

Runs one interconnect model over a set of gating scenarios -- always-on,
idle-countdown thresholds, traffic-EWMA hysteresis -- and tabulates IPC
against state-weighted leakage, dynamic energy and ED^2, so the
leakage-vs-performance trade-off of (say) an aggressive drowsy policy is
a one-command answer (ROADMAP item 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.defaults import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from ..core.metrics import BenchmarkRun
from ..power import parse_gating
from .formatting import render_table
from .runner import ExperimentPlan, ExperimentRunner, SweepReport

#: Benchmarks with distinct traffic mixes: cache-heavy, ILP-heavy,
#: narrow-operand-heavy (same trio the fault sweep uses).
DEFAULT_BENCHMARKS: Tuple[str, ...] = ("gzip", "mcf", "art")


@dataclass(frozen=True)
class GatingScenario:
    """One named gating configuration to sweep."""

    label: str
    policy: str  # canonical gating-policy string; "" = always on

    def canonical(self) -> str:
        parsed = parse_gating(self.policy)
        return "" if parsed is None else parsed.canonical()


DEFAULT_GATING_SCENARIOS: Tuple[GatingScenario, ...] = (
    GatingScenario("always-on", ""),
    GatingScenario("idle 64/256", "idle:drowsy=64,gate=256"),
    GatingScenario("idle 16/64", "idle:drowsy=16,gate=64"),
    GatingScenario("ewma h=64", "ewma:halflife=64,thr=0.5"),
)


@dataclass(frozen=True)
class PowerSweepResult:
    """Aggregated rows of one gating sweep."""

    model_name: str
    rows: Tuple[Tuple[GatingScenario, Tuple[BenchmarkRun, ...]], ...]
    report: SweepReport

    def baseline(self) -> Optional[Tuple[BenchmarkRun, ...]]:
        for scenario, runs in self.rows:
            if not scenario.policy and runs:
                return runs
        return None


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_powersweep(runner: Optional[ExperimentRunner] = None,
                   model_name: str = "X",
                   scenarios: Sequence[GatingScenario]
                   = DEFAULT_GATING_SCENARIOS,
                   benchmarks: Optional[Sequence[str]] = None,
                   num_clusters: int = 4,
                   instructions: int = DEFAULT_INSTRUCTIONS,
                   warmup: int = DEFAULT_WARMUP,
                   seed: int = 42,
                   fault_spec: str = "",
                   workers: Optional[int] = None) -> PowerSweepResult:
    """Sweep ``model_name`` across the gating scenarios.

    ``fault_spec`` (optional) applies one fault configuration to every
    scenario, so gating can be measured on a degraded interconnect.
    Uses :meth:`ExperimentRunner.run_many_report`, so a scenario whose
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
                warmup=warmup, seed=seed, fault_spec=fault_spec,
                gating_policy=scenario.canonical(),
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
    return PowerSweepResult(model_name=model_name, rows=rows,
                            report=report)


def render_powersweep(result: PowerSweepResult) -> str:
    """Leakage/ED^2/IPC trade-off table, plus any failure manifest.

    Leakage, dynamic energy and ED^2 are relative to the always-on
    scenario (= 100); ED^2 is (dynamic + leakage) x delay^2 with delay
    the cycle-count ratio, so lower is better on every energy column.
    """
    headers = ["Scenario", "Policy", "IPC", "dIPC", "Leakage",
               "Dynamic", "ED2", "wakes", "gated"]
    base = result.baseline()
    base_ipc = _mean(r.ipc for r in base) if base else None
    base_leak = _mean(r.interconnect_leakage for r in base) if base else None
    base_dyn = _mean(r.interconnect_dynamic for r in base) if base else None
    base_cycles = _mean(r.cycles for r in base) if base else None
    rows: List[List] = []
    for scenario, runs in result.rows:
        if not runs:
            rows.append([scenario.label, scenario.policy or "(none)",
                         "FAILED", "-", "-", "-", "-", "-", "-"])
            continue
        ipc = _mean(r.ipc for r in runs)
        leak = _mean(r.interconnect_leakage for r in runs)
        dyn = _mean(r.interconnect_dynamic for r in runs)
        cycles = _mean(r.cycles for r in runs)
        stats = [r.extra_stats() for r in runs]
        wakes = sum(s.get("plane_wakes", 0.0) for s in stats)
        gated = _mean(s.get("gated_wire_cycle_share", 0.0)
                      for s in stats)
        if base_leak and base_dyn and base_cycles:
            delay = cycles / base_cycles
            energy = (leak + dyn) / (base_leak + base_dyn)
            ed2 = 100.0 * energy * delay * delay
            leak_cell = f"{100 * leak / base_leak:.0f}"
            dyn_cell = f"{100 * dyn / base_dyn:.0f}"
            ed2_cell = f"{ed2:.0f}"
        else:
            leak_cell = dyn_cell = ed2_cell = "n/a"
        rows.append([
            scenario.label, scenario.policy or "(none)", f"{ipc:.4f}",
            (f"{(ipc / base_ipc - 1) * 100:+.1f}%"
             if base_ipc else "n/a"),
            leak_cell, dyn_cell, ed2_cell,
            f"{wakes:.0f}", f"{gated:.1%}",
        ])
    text = render_table(
        headers, rows,
        title=(f"Plane-gating power sweep, model {result.model_name} "
               f"(means over the benchmark set; leakage/dynamic/ED^2 "
               f"relative to always-on = 100)"),
    )
    manifest = result.report.manifest()
    if manifest:
        text += "\n\n" + manifest
    return text
