"""Which of the paper's wire-selection mechanisms are enabled.

Kept apart from :mod:`repro.interconnect.selection` so configurations
(:class:`repro.core.config.InterconnectConfig`) can name the flags
without importing the selector, telemetry and load balancing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PolicyFlags:
    """Which of the paper's mechanisms are enabled.

    The defaults enable everything a link's composition supports; the
    ablation benchmarks toggle them individually.
    """

    lwire_mispredict: bool = True
    lwire_partial_address: bool = True
    lwire_narrow: bool = True
    pw_ready_operand: bool = True
    pw_store_data: bool = True
    pw_load_balance: bool = True
    #: Extension (off by default): wide values found in the replicated
    #: frequent-value table travel as an L-Wire index (Yang et al.).
    lwire_frequent_value: bool = False
    load_balance_window: int = 5
    load_balance_threshold: int = 10

    def without_lwire_uses(self) -> "PolicyFlags":
        return replace(self, lwire_mispredict=False,
                       lwire_partial_address=False, lwire_narrow=False)
