"""Table 3: the ten interconnect models on the 4-cluster system.

For every model: relative IPC (AM over the 23 benchmarks), relative
interconnect dynamic and leakage energy, relative processor energy at a
10% interconnect share, and ED^2 at 10% and 20% shares -- all normalized
to Model I, exactly as the paper reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.metrics import ModelResult, RelativeMetrics, relative_metrics
from ..core.models import MODEL_NAMES, model
from ..core.simulation import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
)
from ..workloads.spec2k import BENCHMARK_NAMES
from .formatting import render_table
from .paperdata import PAPER_TABLE3
from .runner import ExperimentPlan, ExperimentRunner


@dataclass(frozen=True)
class TableResult:
    """Relative metrics for every model, plus run parameters."""

    num_clusters: int
    rows: Tuple[RelativeMetrics, ...]

    def row(self, model_name: str) -> RelativeMetrics:
        for r in self.rows:
            if r.model == model_name:
                return r
        raise KeyError(model_name)

    def best_ed2(self, fraction: float) -> RelativeMetrics:
        return min(self.rows, key=lambda r: r.ed2(fraction))


def run_table3(runner: Optional[ExperimentRunner] = None,
               benchmarks: Optional[Sequence[str]] = None,
               models: Sequence[str] = MODEL_NAMES,
               num_clusters: int = 4,
               instructions: int = DEFAULT_INSTRUCTIONS,
               warmup: int = DEFAULT_WARMUP,
               latency_scale: float = 1.0,
               workers: Optional[int] = None,
               seed: int = DEFAULT_SEED) -> TableResult:
    """Regenerate Table 3 (or, with num_clusters=16, Table 4's runs).

    The whole models x benchmarks cross product goes through
    :meth:`ExperimentRunner.run_many` as one batch, so cache misses of
    every model fan out across ``workers`` processes together.
    """
    runner = runner or ExperimentRunner()
    names = tuple(benchmarks or BENCHMARK_NAMES)
    plans = {
        name: [
            ExperimentPlan(
                model_name=name, benchmark=bench,
                num_clusters=num_clusters, latency_scale=latency_scale,
                instructions=instructions, warmup=warmup, seed=seed,
            )
            for bench in names
        ]
        for name in models
    }
    runs = runner.run_many(
        [plan for per_model in plans.values() for plan in per_model],
        workers=workers,
    )
    results = {
        name: ModelResult(model=name,
                          runs=tuple(runs[p] for p in plans[name]))
        for name in models
    }
    baseline = results["I"]
    rows = tuple(
        relative_metrics(
            results[name], baseline,
            description=model(name).description,
            relative_metal_area=model(name).relative_metal_area(),
        )
        for name in models
    )
    return TableResult(num_clusters=num_clusters, rows=rows)


def render_table3(result: TableResult,
                  include_paper: bool = True) -> str:
    headers = ["Model", "Description of each link", "Area", "IPC",
               "dyn", "lkg", "E(10%)", "ED2(10%)", "ED2(20%)"]
    rows: List[List] = []
    for r in result.rows:
        rows.append([
            r.model, r.description, f"{r.relative_metal_area:.1f}",
            f"{r.am_ipc:.2f}",
            f"{100 * r.relative_dynamic:.0f}",
            f"{100 * r.relative_leakage:.0f}",
            f"{r.processor_energy(0.10):.0f}",
            f"{r.ed2(0.10):.1f}",
            f"{r.ed2(0.20):.1f}",
        ])
    text = render_table(
        headers, rows,
        title=(f"Table 3: heterogeneous interconnect energy and "
               f"performance, {result.num_clusters}-cluster system "
               f"(all columns except IPC relative to Model I = 100)"),
    )
    if include_paper:
        paper_rows = [
            [name, PAPER_TABLE3[name].metal_area, PAPER_TABLE3[name].ipc,
             PAPER_TABLE3[name].dynamic, PAPER_TABLE3[name].leakage,
             PAPER_TABLE3[name].energy_10, PAPER_TABLE3[name].ed2_10,
             PAPER_TABLE3[name].ed2_20]
            for name in MODEL_NAMES
        ]
        text += "\n\n" + render_table(
            ["Model", "Area", "IPC", "dyn", "lkg", "E(10%)",
             "ED2(10%)", "ED2(20%)"],
            paper_rows,
            title="Paper's Table 3 (for comparison):",
        )
    return text


def shape_summary(result: TableResult) -> Dict[str, bool]:
    """The qualitative conclusions Table 3 supports, as booleans."""
    r = {m.model: m for m in result.rows}
    best_10 = result.best_ed2(0.10).model
    best_20 = result.best_ed2(0.20).model
    return {
        # Model II saves roughly half the dynamic interconnect energy.
        "pw_saves_dynamic": r["II"].relative_dynamic < 0.7,
        # Homogeneous PW yields no significant performance win (the
        # paper reports -3%; our baseline carries more traffic per
        # cycle, so PW's doubled bandwidth buys back most of its
        # latency penalty -- see EXPERIMENTS.md).
        "pw_no_big_win": r["II"].am_ipc <= r["I"].am_ipc * 1.04,
        # The L-Wire layer improves performance (VII vs I).
        "lwires_gain_ipc": r["VII"].am_ipc > r["I"].am_ipc,
        # Heterogeneous interconnects own the best ED^2 at both shares.
        "heterogeneous_best_ed2_10": best_10 not in ("I", "II", "IV",
                                                     "VIII"),
        "heterogeneous_best_ed2_20": best_20 not in ("I", "II", "IV",
                                                     "VIII"),
        # More metal alone (VIII) does not win ED^2.
        "metal_alone_insufficient": (
            r["VIII"].ed2(0.10) > result.best_ed2(0.10).ed2(0.10)
        ),
    }
