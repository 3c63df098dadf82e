"""Table 4: the ten models on the 16-cluster hierarchical system.

Same normalization as Table 3, reported at a 20% interconnect share of
chip energy (16-cluster systems are more interconnect-heavy).  The
paper's headline -- up to 11% ED^2 reduction -- comes from this table
(Models VII and IX at 88.7).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.models import MODEL_NAMES
from ..core.simulation import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
)
from .formatting import render_table
from .paperdata import PAPER_TABLE4
from .runner import ExperimentRunner
from .table3 import TableResult, run_table3


def run_table4(runner: Optional[ExperimentRunner] = None,
               benchmarks: Optional[Sequence[str]] = None,
               models: Sequence[str] = MODEL_NAMES,
               instructions: int = DEFAULT_INSTRUCTIONS,
               warmup: int = DEFAULT_WARMUP,
               workers: Optional[int] = None,
               seed: int = DEFAULT_SEED) -> TableResult:
    """Regenerate Table 4 (16 clusters, hierarchical interconnect)."""
    return run_table3(runner=runner, benchmarks=benchmarks, models=models,
                      num_clusters=16, instructions=instructions,
                      warmup=warmup, workers=workers, seed=seed)


def render_table4(result: TableResult, include_paper: bool = True) -> str:
    headers = ["Model", "Description of each link", "IPC",
               "E(20%)", "ED2(20%)"]
    rows: List[List] = []
    for r in result.rows:
        rows.append([
            r.model, r.description, f"{r.am_ipc:.2f}",
            f"{r.processor_energy(0.20):.0f}",
            f"{r.ed2(0.20):.1f}",
        ])
    text = render_table(
        headers, rows,
        title=("Table 4: heterogeneous interconnects on the 16-cluster "
               "system (interconnect = 20% of chip energy in Model I)"),
    )
    if include_paper:
        paper_rows = [
            [name, PAPER_TABLE4[name].ipc, PAPER_TABLE4[name].energy_20,
             PAPER_TABLE4[name].ed2_20]
            for name in MODEL_NAMES
        ]
        text += "\n\n" + render_table(
            ["Model", "IPC", "E(20%)", "ED2(20%)"],
            paper_rows, title="Paper's Table 4 (for comparison):",
        )
    best = result.best_ed2(0.20)
    text += (f"\n\nbest ED2(20%): Model {best.model} at "
             f"{best.ed2(0.20):.1f} "
             f"({100 - best.ed2(0.20):+.1f}% vs baseline; paper: up to "
             f"-11% via Models VII/IX)")
    return text
