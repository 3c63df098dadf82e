"""Narrow bit-width operand machinery (Section 4 of the paper) plus the
frequent-value compaction extension (Yang et al.)."""

from typing import TYPE_CHECKING

from .. import _lazy

if TYPE_CHECKING:
    from .frequent import FrequentValueTable, frequent_value_coverage
    from .narrow import NarrowWidthPredictor, count_leading_zeros, fits_narrow

__all__ = [
    "FrequentValueTable",
    "frequent_value_coverage",
    "NarrowWidthPredictor",
    "count_leading_zeros",
    "fits_narrow",
]

__getattr__, __dir__ = _lazy.attach(__name__)
