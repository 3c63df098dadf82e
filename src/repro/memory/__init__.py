"""Centralized memory hierarchy: caches, TLB, LSQ, cache pipeline."""

from typing import TYPE_CHECKING

from .. import _lazy

if TYPE_CHECKING:
    from .cache import SetAssocCache
    from .depspec import MemoryDependencePredictor
    from .hierarchy import HierarchyConfig, HitLevel, MemoryHierarchy
    from .lsq import LoadStoreQueue
    from .pipeline import AccessResult, CachePipeline
    from .tlb import TLB

__all__ = [
    "SetAssocCache",
    "MemoryDependencePredictor",
    "TLB",
    "HierarchyConfig",
    "HitLevel",
    "MemoryHierarchy",
    "AccessResult",
    "CachePipeline",
    "LoadStoreQueue",
]

__getattr__, __dir__ = _lazy.attach(__name__)
