"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry subsumes the ad-hoc counter attributes scattered across
``interconnect/stats.py`` and the selector/steering objects: one named
namespace, snapshot-able in sorted order, with *no* wall-clock anywhere
(SIM1xx applies to this package in full -- timestamps in simulator
scope are cycles, and rates are the harness's job).

Histograms use fixed, caller-declared bucket upper bounds so two runs
of the same plan always land observations in the same buckets --
adaptive bucketing would make the snapshot depend on arrival order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class Counter:
    """A monotonically non-decreasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram of non-negative observations.

    ``bounds`` are inclusive upper edges in strictly increasing order;
    one implicit overflow bucket catches everything above the last
    edge.  Bucket counts plus ``total``/``sum`` are the whole state --
    deterministic and mergeable.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = tuple(bounds)
        if not edges:
            raise ValueError(
                f"histogram {name!r} needs at least one bucket bound"
            )
        if any(later <= earlier
               for earlier, later in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name!r} bounds must strictly increase: "
                f"{edges}"
            )
        self.name = name
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(
                f"histogram {self.name!r} observations must be "
                f"non-negative (got {value})"
            )
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += 1
        self.sum += value

    def to_json(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms with get-or-create semantics.

    A name belongs to exactly one instrument type; re-requesting an
    existing histogram with different bounds is an error (silently
    rebucketing would corrupt comparisons across runs).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_name(self, name: str, kind: str) -> None:
        if not name or not isinstance(name, str):
            raise ValueError("metric names must be non-empty strings")
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{other_kind}, cannot re-register as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        existing = self._counters.get(name)
        if existing is None:
            self._check_name(name, "counter")
            existing = self._counters.setdefault(name, Counter(name))
        return existing

    def gauge(self, name: str) -> Gauge:
        existing = self._gauges.get(name)
        if existing is None:
            self._check_name(name, "gauge")
            existing = self._gauges.setdefault(name, Gauge(name))
        return existing

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        existing = self._histograms.get(name)
        if existing is not None:
            if bounds is not None and tuple(bounds) != existing.bounds:
                raise ValueError(
                    f"histogram {name!r} already registered with bounds "
                    f"{existing.bounds}, requested {tuple(bounds)}"
                )
            return existing
        if bounds is None:
            raise ValueError(
                f"histogram {name!r} does not exist yet; pass bucket "
                f"bounds to create it"
            )
        self._check_name(name, "histogram")
        return self._histograms.setdefault(name, Histogram(name, bounds))

    def snapshot(self) -> Dict[str, object]:
        """All instruments, sorted by name (stable across runs)."""
        out: Dict[str, object] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._gauges):
            out[name] = self._gauges[name].value
        for name in sorted(self._histograms):
            out[name] = self._histograms[name].to_json()
        return out

    def render(self) -> str:
        """Human-readable one-metric-per-line summary."""
        lines: List[str] = []
        for name, value in sorted(self.snapshot().items()):
            if isinstance(value, dict):
                lines.append(
                    f"{name}: n={value['total']} sum={value['sum']:g} "
                    f"buckets={value['counts']}"
                )
            else:
                lines.append(f"{name}: {value:g}"
                             if isinstance(value, float)
                             else f"{name}: {value}")
        return "\n".join(lines)


def merge_counters(snapshots: Sequence[Dict[str, object]]
                   ) -> Dict[str, int]:
    """Sum the integer counters of several snapshots (sweep roll-up)."""
    totals: Dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            totals[name] = totals.get(name, 0) + value
    return dict(sorted(totals.items()))
