"""Tunable characteristics of a synthetic benchmark.

Kept apart from :mod:`repro.workloads.generator` so the benchmark
catalogue (:mod:`repro.workloads.spec2k`) loads without the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class WorkloadProfile:
    """Tunable characteristics of a synthetic benchmark.

    The 23 SPEC2k-named instances live in :mod:`repro.workloads.spec2k`.
    """

    name: str
    #: Static code size, in basic blocks.
    num_blocks: int = 64
    #: Inclusive range of non-branch instructions per block.
    block_size_range: Tuple[int, int] = (5, 11)
    #: Fraction of blocks ending in a loop back-edge.
    loop_frac: float = 0.45
    #: Mean trip count of loops (geometric).
    mean_loop_trips: float = 24.0
    #: Fraction of conditional branches with near-50/50 bias (hard).
    hard_branch_frac: float = 0.10
    #: Instruction mix (fractions of non-branch slots).
    load_frac: float = 0.26
    store_frac: float = 0.12
    fp_frac: float = 0.0
    imul_frac: float = 0.03
    fpmul_frac: float = 0.0
    #: Fraction of ALU slots with two register sources.
    two_src_frac: float = 0.55
    #: Probability a source register is drawn from the most recent writers
    #: (short dependence distance -> long chains, low ILP).
    dep_locality: float = 0.55
    #: Probability a load address base register is a long-lived
    #: (typically architected and ready) value -- real address bases are
    #: stack/frame/base pointers far more often than fresh results.
    addr_base_ready: float = 0.55
    #: Same for stores.  Store addresses (spills, array writes) are even
    #: more often base+offset off a stable register; since every older
    #: store with an unresolved address blocks all younger loads at the
    #: LSQ, this parameter controls the disambiguation-stall tail.
    store_addr_ready: float = 0.85
    #: Memory behaviour.
    working_set_kb: int = 512
    stream_frac: float = 0.45
    pointer_frac: float = 0.15
    stack_frac: float = 0.25
    #: Fraction of pointer-chasing references that stay inside a hot
    #: subset of the working set (real pointer codes keep hot structures).
    pointer_hot_frac: float = 0.80
    #: Size of that hot subset (bytes).
    pointer_hot_bytes: int = 16 * 1024
    #: Fraction of integer-result static slots that habitually produce
    #: narrow (<=10-bit) values, and how consistently they do so.
    narrow_static_frac: float = 0.18
    narrow_consistency: float = 0.99
    #: Chance a habitually-wide slot produces a narrow value anyway.
    narrow_background: float = 0.01
    #: Fraction of wide integer results drawn from a small pool of
    #: program-global frequent values (Yang et al. report the eight most
    #: frequent values covering ~50% of SPEC95-Int cache accesses).
    frequent_value_frac: float = 0.35
    #: Size of that frequent-value pool.
    frequent_value_pool: int = 8

    def __post_init__(self) -> None:
        if self.num_blocks < 2:
            raise ValueError("need at least two basic blocks")
        lo, hi = self.block_size_range
        if not 1 <= lo <= hi:
            raise ValueError("invalid block size range")
        total_mem = self.load_frac + self.store_frac
        if total_mem >= 1.0:
            raise ValueError("load+store fractions must leave room for ALU ops")
        for field_name in ("loop_frac", "hard_branch_frac", "load_frac",
                           "store_frac", "fp_frac", "imul_frac", "fpmul_frac",
                           "two_src_frac", "dep_locality", "stream_frac",
                           "pointer_frac", "stack_frac", "narrow_static_frac",
                           "narrow_consistency", "narrow_background",
                           "frequent_value_frac"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1]")
        if self.working_set_kb < 1:
            raise ValueError("working set must be at least 1 KB")
        if self.mean_loop_trips < 1.0:
            raise ValueError("mean loop trips must be >= 1")
        if self.frequent_value_pool < 1:
            raise ValueError("frequent-value pool must hold a value")
