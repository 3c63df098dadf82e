"""The paper's 23-benchmark SPEC2k workload set, as synthetic profiles.

The paper simulates 23 of the 26 SPEC2k programs (sixtrack, facerec and
perlbmk were incompatible with its infrastructure).  Each profile below
parameterizes the synthetic generator to approximate the well-known
behaviour of its namesake: instruction mix, dependence density (ILP),
branch predictability, memory working set and reference pattern, and
narrow-operand frequency.  Absolute IPCs need not match the paper's; the
per-benchmark *diversity* (memory-bound vs. ILP-rich, branchy vs. regular)
is what the heterogeneous-interconnect conclusions depend on.

The numeric values were calibrated (see EXPERIMENTS.md) so that on the
paper's baseline 4-cluster processor the suite lands near the paper's
aggregate behaviour: arithmetic-mean IPC ~0.9, combining-predictor
accuracy ~93%, ~12% IPC loss when inter-cluster latency doubles, and a
mid-teens IPC gain moving from 4 to 16 clusters.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .params import WorkloadProfile

#: Benchmark names in the paper's Figure 3 order.
BENCHMARK_NAMES: Tuple[str, ...] = (
    "ammp", "applu", "apsi", "art", "bzip2", "crafty", "eon", "equake",
    "fma3d", "galgel", "gap", "gcc", "gzip", "lucas", "mcf", "mesa",
    "mgrid", "parser", "swim", "twolf", "vortex", "vpr", "wupwise",
)


def _fp(name: str, **kw) -> WorkloadProfile:
    defaults = dict(
        fp_frac=0.50, fpmul_frac=0.20, narrow_static_frac=0.10,
        two_src_frac=0.60, hard_branch_frac=0.02, loop_frac=0.55,
        mean_loop_trips=60.0,
    )
    defaults.update(kw)
    return WorkloadProfile(name=name, **defaults)


def _int(name: str, **kw) -> WorkloadProfile:
    defaults = dict(
        fp_frac=0.0, fpmul_frac=0.0, narrow_static_frac=0.24,
        hard_branch_frac=0.045, loop_frac=0.40, mean_loop_trips=24.0,
    )
    defaults.update(kw)
    return WorkloadProfile(name=name, **defaults)


PROFILES: Dict[str, WorkloadProfile] = {
    # -- floating point ----------------------------------------------------
    "ammp": _fp("ammp", working_set_kb=2048, pointer_frac=0.35,
                stream_frac=0.30, dep_locality=0.90),
    "applu": _fp("applu", working_set_kb=8192, stream_frac=0.65,
                 pointer_frac=0.05, dep_locality=0.56,
                 block_size_range=(8, 16)),
    "apsi": _fp("apsi", working_set_kb=2048, stream_frac=0.50,
                dep_locality=0.80),
    "art": _fp("art", working_set_kb=4096, stream_frac=0.70,
               pointer_frac=0.05, dep_locality=0.85, load_frac=0.32),
    "equake": _fp("equake", working_set_kb=8192, stream_frac=0.55,
                  pointer_frac=0.15, dep_locality=0.85, load_frac=0.30),
    "fma3d": _fp("fma3d", working_set_kb=4096, stream_frac=0.45,
                 pointer_frac=0.15, dep_locality=0.80),
    "galgel": _fp("galgel", working_set_kb=1024, stream_frac=0.60,
                  dep_locality=0.48, block_size_range=(8, 16)),
    "lucas": _fp("lucas", working_set_kb=8192, stream_frac=0.70,
                 pointer_frac=0.02, dep_locality=0.64),
    "mesa": _fp("mesa", working_set_kb=256, stream_frac=0.40,
                dep_locality=0.64, fp_frac=0.35, narrow_static_frac=0.14),
    "mgrid": _fp("mgrid", working_set_kb=4096, stream_frac=0.75,
                 pointer_frac=0.02, dep_locality=0.48,
                 block_size_range=(9, 16)),
    "swim": _fp("swim", working_set_kb=8192, stream_frac=0.80,
                pointer_frac=0.02, dep_locality=0.48,
                block_size_range=(9, 16)),
    "wupwise": _fp("wupwise", working_set_kb=2048, stream_frac=0.55,
                   dep_locality=0.72),
    # -- integer -----------------------------------------------------------
    "bzip2": _int("bzip2", working_set_kb=1024, stream_frac=0.50,
                  pointer_frac=0.15, dep_locality=0.88),
    "crafty": _int("crafty", working_set_kb=256, hard_branch_frac=0.06,
                   pointer_frac=0.20, dep_locality=0.80,
                   block_size_range=(4, 9), num_blocks=128),
    "eon": _fp("eon", working_set_kb=128, fp_frac=0.30, fpmul_frac=0.10,
               dep_locality=0.64, narrow_static_frac=0.16,
               hard_branch_frac=0.03),
    "gap": _int("gap", working_set_kb=1024, pointer_frac=0.25,
                dep_locality=0.88),
    "gcc": _int("gcc", working_set_kb=2048, hard_branch_frac=0.06,
                pointer_frac=0.25, num_blocks=256,
                block_size_range=(4, 9), dep_locality=0.88),
    "gzip": _int("gzip", working_set_kb=256, stream_frac=0.55,
                 dep_locality=0.92),
    "mcf": _int("mcf", working_set_kb=12288, pointer_frac=0.60,
                stream_frac=0.10, dep_locality=0.95, load_frac=0.32,
                pointer_hot_bytes=32 * 1024, block_size_range=(4, 8)),
    "parser": _int("parser", working_set_kb=1024, pointer_frac=0.35,
                   hard_branch_frac=0.055, dep_locality=0.92,
                   block_size_range=(4, 9)),
    "twolf": _int("twolf", working_set_kb=512, pointer_frac=0.40,
                  hard_branch_frac=0.05, dep_locality=0.92,
                  block_size_range=(4, 9)),
    "vortex": _int("vortex", working_set_kb=2048, pointer_frac=0.30,
                   hard_branch_frac=0.025, dep_locality=0.80),
    "vpr": _int("vpr", working_set_kb=512, pointer_frac=0.35,
                hard_branch_frac=0.05, dep_locality=0.92),
}


def profile(name: str) -> WorkloadProfile:
    """Look up one of the 23 SPEC2k-like profiles by benchmark name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}"
        ) from None


def all_profiles() -> Tuple[WorkloadProfile, ...]:
    """All 23 profiles, in the paper's Figure 3 order."""
    return tuple(PROFILES[name] for name in BENCHMARK_NAMES)
