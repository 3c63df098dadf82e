"""Front end: branch prediction and fetch (Table 1 parameters)."""

from typing import TYPE_CHECKING

from .. import _lazy

if TYPE_CHECKING:
    from .bpred import (
        BimodalPredictor,
        BranchTargetBuffer,
        CombinedPredictor,
        SaturatingCounterTable,
        TwoLevelPredictor,
    )
    from .fetch import FetchUnit

__all__ = [
    "BimodalPredictor",
    "BranchTargetBuffer",
    "CombinedPredictor",
    "SaturatingCounterTable",
    "TwoLevelPredictor",
    "FetchUnit",
]

__getattr__, __dir__ = _lazy.attach(__name__)
