"""repro -- reproduction of "Microarchitectural Wire Management for
Performance and Power in Partitioned Architectures" (HPCA-11, 2005).

The library builds, from scratch, everything the paper's evaluation rests
on: an RC/transmission-line wire model (Section 2), a heterogeneous
inter-cluster interconnect with per-transfer wire selection (Sections 3
and 4), a dynamically scheduled clustered processor with a centralized
data cache (Section 4), synthetic SPEC2k-like workloads, and a benchmark
harness regenerating every table and figure of Section 5.

Quick start::

    from repro import model, simulate_benchmark

    run = simulate_benchmark(model("VII").config, "gcc",
                             instructions=10_000, warmup=2_000)
    print(run.ipc)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from typing import TYPE_CHECKING

from . import _lazy

if TYPE_CHECKING:
    from ._version import __version__
    from .core import (
        ClusteredProcessor,
        InterconnectConfig,
        InterconnectModel,
        ModelResult,
        ProcessorConfig,
        RelativeMetrics,
        all_models,
        baseline_interconnect,
        model,
        relative_metrics,
        simulate_benchmark,
        simulate_model,
        wire_counts,
    )
    from .interconnect import (
        CrossbarTopology,
        HierarchicalTopology,
        LinkComposition,
        Network,
        PolicyFlags,
        Transfer,
        TransferKind,
    )
    from .wires import WireClass, WireSpec, table2_rows
    from .workloads import (
        BENCHMARK_NAMES,
        TraceGenerator,
        WorkloadProfile,
        profile,
    )

__all__ = [
    "ClusteredProcessor",
    "InterconnectConfig",
    "InterconnectModel",
    "ModelResult",
    "ProcessorConfig",
    "RelativeMetrics",
    "all_models",
    "baseline_interconnect",
    "model",
    "relative_metrics",
    "simulate_benchmark",
    "simulate_model",
    "wire_counts",
    "CrossbarTopology",
    "HierarchicalTopology",
    "LinkComposition",
    "Network",
    "PolicyFlags",
    "Transfer",
    "TransferKind",
    "WireClass",
    "WireSpec",
    "table2_rows",
    "BENCHMARK_NAMES",
    "TraceGenerator",
    "WorkloadProfile",
    "profile",
    "__version__",
]

__getattr__, __dir__ = _lazy.attach(__name__)
