"""Cluster execution resources, steering, and criticality prediction."""

from typing import TYPE_CHECKING

from .. import _lazy

if TYPE_CHECKING:
    from .cluster import DEFAULT_FU_COUNTS, FU_POOL, Cluster, uses_fp_resources
    from .criticality import CriticalityPredictor
    from .steering import SteeringHeuristic, SteeringWeights

__all__ = [
    "DEFAULT_FU_COUNTS",
    "FU_POOL",
    "Cluster",
    "uses_fp_resources",
    "CriticalityPredictor",
    "SteeringHeuristic",
    "SteeringWeights",
]

__getattr__, __dir__ = _lazy.attach(__name__)
