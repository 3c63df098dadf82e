"""Synthetic SPEC2k-like workloads (the paper's benchmark substrate)."""

from typing import TYPE_CHECKING

from .. import _lazy

if TYPE_CHECKING:
    from .generator import StreamKind, TraceGenerator
    from .params import WorkloadProfile
    from .spec2k import BENCHMARK_NAMES, PROFILES, all_profiles, profile
    from .trace import (
        EXECUTION_LATENCY,
        NO_REG,
        NUM_ARCH_REGS,
        InstructionRecord,
        OpClass,
    )

__all__ = [
    "EXECUTION_LATENCY",
    "NO_REG",
    "NUM_ARCH_REGS",
    "InstructionRecord",
    "OpClass",
    "StreamKind",
    "TraceGenerator",
    "WorkloadProfile",
    "BENCHMARK_NAMES",
    "PROFILES",
    "all_profiles",
    "profile",
]

__getattr__, __dir__ = _lazy.attach(__name__)
