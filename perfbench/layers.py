"""Per-layer numbers from a cProfile roll-up through a module->layer map.

Self time of every profiled function is charged to the layer owning its
source file: the ``repro`` sub-package it lives in, mapped below.
Builtins, the standard library and numpy are ``external``.  Call counts
of a few boundary functions give each layer's work as an exact count.
"""

from __future__ import annotations

import os
import pstats
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

LAYERS = ("core", "workloads", "frontend", "clusters", "interconnect",
          "memory", "faults", "power", "telemetry", "harness", "external")

#: ``repro`` sub-package -> layer.  Anything else under ``repro`` (the
#: CLI, service, explorer, linter) and this benchmark's own code
#: is ``harness``.
PACKAGE_LAYER = {
    "core": "core",
    "operands": "core",
    "workloads": "workloads",
    "frontend": "frontend",
    "clusters": "clusters",
    "interconnect": "interconnect",
    "wires": "interconnect",
    "memory": "memory",
    "faults": "faults",
    "power": "power",
    "telemetry": "telemetry",
    "harness": "harness",
}

#: Counted boundary calls: metric -> (file under repro/, function).
CALL_COUNTS = {
    "core.steps": ("core/fastcore.py", "step"),
    "frontend.fetch_ticks": ("frontend/fastfetch.py", "tick"),
    "clusters.steer_calls": ("clusters/faststeer.py", "choose"),
    "clusters.select_calls": ("clusters/fastcluster.py", "select"),
    "interconnect.submits": ("interconnect/fastnet.py", "submit"),
    "interconnect.ticks": ("interconnect/fastnet.py", "tick"),
    "memory.lsq_allocs": ("memory/fastlsq.py", "allocate"),
}
#: ``BatchedNetwork.submit`` calls that fell back to ``Network.submit``.
FALLBACK = (("interconnect/network.py", "submit"),
            ("interconnect/fastnet.py", "submit"))


class LayerMap:
    def __init__(self, src: str, bench_dir: str) -> None:
        self._repro = os.path.join(os.path.abspath(src), "repro") + os.sep
        self._bench = os.path.abspath(bench_dir) + os.sep
        self._memo: Dict[str, str] = {}

    def relative(self, filename: str) -> str:
        """Path below ``repro/`` with ``/`` separators, else ""."""
        path = os.path.abspath(filename)
        if not path.startswith(self._repro):
            return ""
        return path[len(self._repro):].replace(os.sep, "/")

    def layer(self, filename: str) -> str:
        layer = self._memo.get(filename)
        if layer is None:
            rel = self.relative(filename)
            if rel:
                layer = PACKAGE_LAYER.get(rel.split("/")[0], "harness")
            elif os.path.abspath(filename).startswith(self._bench):
                layer = "harness"
            else:
                layer = "external"
            self._memo[filename] = layer
        return layer

    def rollup(self, stats: pstats.Stats) -> Dict[str, float]:
        """``<layer>.self_s``/``.share``, call counts, fallback share."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls: Dict[Tuple[str, str], int] = {}
        callee, caller = FALLBACK
        fallbacks = 0
        for (filename, _, func), (_, nc, tt, _, callers) in \
                stats.stats.items():
            self_s[self.layer(filename)] += tt
            site = (self.relative(filename), func)
            calls[site] = calls.get(site, 0) + nc
            if site == callee:
                fallbacks += sum(
                    counts[0] for (c_file, _, c_func), counts
                    in callers.items()
                    if (self.relative(c_file), c_func) == caller)
        total = sum(self_s.values()) or 1.0
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = self_s[layer] / total
        for metric, site in CALL_COUNTS.items():
            out[metric] = calls.get(site, 0)
        submits = out["interconnect.submits"]
        out["interconnect.fallback_share"] = (fallbacks / submits
                                              if submits else 0.0)
        return out


@contextmanager
def counting_cycles() -> Iterator[List[int]]:
    """Sum the simulated cycles (warm-up included) of every event-engine
    run inside the block; yields a one-element list holding the total."""
    from repro.core.fastcore import EventProcessor

    original = EventProcessor.__dict__["run"]
    total = [0]

    def run(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            total[0] += self.cycle

    EventProcessor.run = run
    try:
        yield total
    finally:
        EventProcessor.run = original
