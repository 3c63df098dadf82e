"""Plan-caching wire selector for the event-driven core.

The event engine's network uses this selector in every run, traced,
faulted and gated ones included.  With no planes to avoid, the plan
for a transfer is a pure function of (kind, narrow prediction, narrow
outcome, readiness, bits) plus -- when the load-balance rule is armed
-- the current bulk-plane choice.  This selector memoizes the frozen
:class:`PlannedSegment` tuples per decision instead of rebuilding them
per transfer, and skips the imbalance detector's traffic window
entirely on compositions where the detector can never be consulted.

Every counter, telemetry emit and decision reason matches
:class:`WireSelector` exactly.  A transfer that must avoid planes (dead
after a fault, or asleep under a gating policy) is planned by the
scalar planner, call by call; the rest of its run keeps the cache.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..telemetry import Telemetry
from ..wires import WireClass
from .message import (
    LWIRE_BITS,
    MISPREDICT_BITS,
    MS_ADDRESS_BITS,
    PARTIAL_ADDRESS_BITS,
    Transfer,
    TransferKind,
)
from .plane import LinkComposition
from .selection import PlannedSegment, PolicyFlags, WireSelector

_NO_AVOID: FrozenSet[WireClass] = frozenset()

Plan = Tuple[str, List[PlannedSegment]]


class CachingWireSelector(WireSelector):
    """Memoizing drop-in for :class:`WireSelector`."""

    def __init__(self, composition: LinkComposition,
                 flags: PolicyFlags | None = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        super().__init__(composition, flags, telemetry=telemetry)
        #: The imbalance detector is only ever consulted when the rule
        #: is on and both bulk-capable planes exist; otherwise feeding
        #: its traffic window is unobservable work.
        self._dynamic_bulk = (self.flags.pw_load_balance
                              and self._has_b and self._has_pw)
        self._plans: Dict[tuple, Plan] = {}

    def record_injection(self, cycle: int, wire_class: WireClass) -> None:
        if self._dynamic_bulk:
            self._detector.record(cycle, wire_class)

    def _cached(self, key: tuple, reason: str,
                segments: List[PlannedSegment]) -> Plan:
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = (reason, segments)
        return plan

    def _plan(self, transfer: Transfer, cycle: int,
              avoid: FrozenSet[WireClass]) -> tuple:
        if avoid:
            # Degraded paths are rare and stateful: use the reference
            # planner (counters included) verbatim.
            return super()._plan(transfer, cycle, avoid)
        kind = transfer.kind
        flags = self.flags
        has_l = self._has_l
        has_pw = self._has_pw

        if kind is TransferKind.OPERAND:
            self.operand_transfers += 1
            if transfer.narrow_actual:
                self.operand_narrow += 1

        if kind is TransferKind.MISPREDICT:
            if flags.lwire_mispredict and has_l:
                return self._cached(
                    ("mis_l",), "mispredict_lwire",
                    [PlannedSegment(WireClass.L, MISPREDICT_BITS)],
                )
            bulk = (self._bulk_choice(transfer, cycle, _NO_AVOID)
                    if self._dynamic_bulk else self._bulk)
            return self._cached(
                ("mis_b", bulk), "mispredict_bulk",
                [PlannedSegment(bulk, MISPREDICT_BITS)],
            )

        if kind.is_address and flags.lwire_partial_address and has_l:
            bulk = (self._bulk_choice(transfer, cycle, _NO_AVOID)
                    if self._dynamic_bulk else self._bulk)
            return self._cached(
                ("addr", bulk), "partial_address",
                [
                    PlannedSegment(WireClass.L, PARTIAL_ADDRESS_BITS,
                                   is_leading_slice=True,
                                   is_final_slice=False),
                    PlannedSegment(bulk, MS_ADDRESS_BITS),
                ],
            )

        if (kind in (TransferKind.OPERAND, TransferKind.LOAD_DATA)
                and flags.lwire_narrow and has_l
                and transfer.narrow_predicted):
            self.narrow_transfers += 1
            if transfer.narrow_actual:
                return self._cached(
                    ("nl",), "narrow_lwire",
                    [PlannedSegment(WireClass.L, LWIRE_BITS)],
                )
            self.narrow_mispredicts += 1
            bulk = (self._bulk_choice(transfer, cycle, _NO_AVOID)
                    if self._dynamic_bulk else self._bulk)
            return self._cached(
                ("nm", bulk, transfer.bits), "narrow_mispredict",
                [
                    PlannedSegment(WireClass.L, LWIRE_BITS,
                                   is_leading_slice=True,
                                   is_final_slice=False),
                    PlannedSegment(bulk, transfer.bits,
                                   submit_delay=self.NARROW_MISPREDICT_PENALTY),
                ],
            )

        if (kind in (TransferKind.OPERAND, TransferKind.LOAD_DATA)
                and flags.lwire_frequent_value and has_l
                and transfer.fv_encodable):
            self.fv_transfers += 1
            return self._cached(
                ("fv",), "frequent_value",
                [PlannedSegment(WireClass.L, LWIRE_BITS)],
            )

        if (kind is TransferKind.OPERAND and transfer.ready_at_dispatch
                and flags.pw_ready_operand and has_pw):
            self.pw_ready_transfers += 1
            return self._cached(
                ("pwr", transfer.bits), "pw_ready",
                [PlannedSegment(WireClass.PW, transfer.bits)],
            )

        if (kind is TransferKind.STORE_DATA and flags.pw_store_data
                and has_pw):
            self.pw_store_transfers += 1
            return self._cached(
                ("pws", transfer.bits), "pw_store",
                [PlannedSegment(WireClass.PW, transfer.bits)],
            )

        bulk = (self._bulk_choice(transfer, cycle, _NO_AVOID)
                if self._dynamic_bulk else self._bulk)
        return self._cached(
            ("blk", bulk, transfer.bits), "bulk",
            [PlannedSegment(bulk, transfer.bits)],
        )
