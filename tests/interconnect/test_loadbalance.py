"""Tests for the sliding-window traffic-imbalance detector."""

import pytest
from hypothesis import given, strategies as st

from repro.interconnect.flags import PolicyFlags
from repro.interconnect.loadbalance import ImbalanceDetector, TrafficWindow
from repro.interconnect.message import Transfer, TransferKind
from repro.interconnect.plane import LinkComposition
from repro.interconnect.selection import WireSelector
from repro.telemetry import EventKind, RingBufferSink, Telemetry
from repro.wires import WireClass


class TestTrafficWindow:
    def test_counts_within_window(self):
        w = TrafficWindow(window=5)
        for c in range(3):
            w.record(c, WireClass.B)
        assert w.count(3, WireClass.B) == 3

    def test_expires_old_events(self):
        """At cycle 4 the window covers cycles 0..4; at cycle 5 it is 1..5
        and the cycle-0 event has aged out."""
        w = TrafficWindow(window=5)
        w.record(0, WireClass.B)
        assert w.count(4, WireClass.B) == 1
        assert w.count(5, WireClass.B) == 0

    def test_separate_planes(self):
        w = TrafficWindow(window=5)
        w.record(0, WireClass.B)
        w.record(0, WireClass.PW)
        w.record(1, WireClass.PW)
        assert w.count(1, WireClass.B) == 1
        assert w.count(1, WireClass.PW) == 2

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            TrafficWindow(window=0)

    @given(events=st.lists(
        st.tuples(st.integers(min_value=0, max_value=50),
                  st.sampled_from([WireClass.B, WireClass.PW])),
        max_size=60,
    ))
    def test_count_matches_bruteforce(self, events):
        """Window counts always equal a brute-force recount."""
        events = sorted(events, key=lambda e: e[0])
        w = TrafficWindow(window=5)
        for cycle, wc in events:
            w.record(cycle, wc)
        probe = 50
        for wc in (WireClass.B, WireClass.PW):
            expected = sum(
                1 for c, e in events if e is wc and c > probe - 5
            )
            assert w.count(probe, wc) == expected


class TestImbalanceDetector:
    def test_balanced_traffic_no_redirect(self):
        d = ImbalanceDetector(window=5, threshold=10)
        for c in range(5):
            d.record(c, WireClass.B)
            d.record(c, WireClass.PW)
        assert d.redirect(4, WireClass.B, WireClass.PW) is None

    def test_redirects_away_from_congested_plane(self):
        """The paper's policy: difference beyond the threshold steers
        transfers to the less congested interconnect."""
        d = ImbalanceDetector(window=5, threshold=10)
        for _ in range(12):
            d.record(3, WireClass.B)
        assert d.redirect(3, WireClass.B, WireClass.PW) is WireClass.PW

    def test_redirects_in_both_directions(self):
        d = ImbalanceDetector(window=5, threshold=10)
        for _ in range(12):
            d.record(3, WireClass.PW)
        assert d.redirect(3, WireClass.B, WireClass.PW) is WireClass.B

    def test_threshold_is_inclusive_boundary(self):
        d = ImbalanceDetector(window=5, threshold=10)
        for _ in range(10):
            d.record(0, WireClass.B)
        assert d.redirect(0, WireClass.B, WireClass.PW) is None
        d.record(0, WireClass.B)
        assert d.redirect(0, WireClass.B, WireClass.PW) is WireClass.PW

    def test_imbalance_expires_with_window(self):
        d = ImbalanceDetector(window=5, threshold=10)
        for _ in range(20):
            d.record(0, WireClass.B)
        assert d.redirect(0, WireClass.B, WireClass.PW) is WireClass.PW
        assert d.redirect(20, WireClass.B, WireClass.PW) is None

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            ImbalanceDetector(threshold=-1)


class TestWindowEdgeCases:
    def test_window_shorter_than_history(self):
        """Only the trailing ``window`` cycles count, however long the
        recorded history is."""
        w = TrafficWindow(window=2)
        for cycle in range(10):
            w.record(cycle, WireClass.B)
        # At cycle 9 the window covers cycles 8..9 only.
        assert w.count(9, WireClass.B) == 2

    def test_single_cycle_window(self):
        w = TrafficWindow(window=1)
        w.record(5, WireClass.B)
        assert w.count(5, WireClass.B) == 1
        assert w.count(6, WireClass.B) == 0

    def test_zero_traffic_interval_resets_counts(self):
        """A long quiet gap between bursts must fully expire the first
        burst, not leave stale counts behind."""
        w = TrafficWindow(window=5)
        for _ in range(7):
            w.record(0, WireClass.B)
        assert w.count(0, WireClass.B) == 7
        # Nothing recorded for 100 cycles: counts must read zero...
        assert w.count(100, WireClass.B) == 0
        # ...and new traffic after the gap counts from scratch.
        w.record(100, WireClass.B)
        assert w.count(100, WireClass.B) == 1

    def test_query_on_empty_window(self):
        w = TrafficWindow(window=5)
        assert w.count(0, WireClass.B) == 0
        assert w.count(10 ** 9, WireClass.PW) == 0

    def test_detector_zero_traffic_interval_no_redirect(self):
        d = ImbalanceDetector(window=5, threshold=10)
        for _ in range(30):
            d.record(0, WireClass.B)
        assert d.redirect(0, WireClass.B, WireClass.PW) is WireClass.PW
        # Quiet interval: both planes at zero is balanced, not diverted.
        assert d.redirect(50, WireClass.B, WireClass.PW) is None

    def test_threshold_exactly_at_boundary_both_directions(self):
        """|a - b| == threshold keeps the default; one more transfer on
        either side flips the decision (strictly-greater comparison)."""
        d = ImbalanceDetector(window=5, threshold=4)
        for _ in range(6):
            d.record(0, WireClass.B)
        for _ in range(2):
            d.record(0, WireClass.PW)
        assert d.redirect(0, WireClass.B, WireClass.PW) is None  # 6-2 == 4
        d.record(0, WireClass.B)
        assert d.redirect(0, WireClass.B, WireClass.PW) is WireClass.PW
        for _ in range(6):
            d.record(0, WireClass.PW)
        # Now PW leads by 5 - 7... recount: B=7, PW=8, |diff|=1 -> None.
        assert d.redirect(0, WireClass.B, WireClass.PW) is None
        for _ in range(4):
            d.record(0, WireClass.PW)
        assert d.redirect(0, WireClass.B, WireClass.PW) is WireClass.B

    def test_zero_threshold_any_imbalance_redirects(self):
        d = ImbalanceDetector(window=5, threshold=0)
        assert d.redirect(0, WireClass.B, WireClass.PW) is None  # 0 == 0
        d.record(0, WireClass.B)
        assert d.redirect(0, WireClass.B, WireClass.PW) is WireClass.PW

    def test_boundary_event_at_window_edge(self):
        """An event exactly ``window`` cycles old is expired; one cycle
        younger is still counted."""
        w = TrafficWindow(window=3)
        w.record(7, WireClass.B)
        assert w.count(9, WireClass.B) == 1   # age 2 < 3
        assert w.count(10, WireClass.B) == 0  # age 3 == window: expired


class TestTracerOverflowEvents:
    """The same edge cases observed from the outside, through the
    tracer's LB_DIVERT overflow events rather than the detector's
    return value."""

    def _selector(self, telemetry, window=5, threshold=10):
        return WireSelector(
            LinkComposition({WireClass.B: 144, WireClass.PW: 288}),
            PolicyFlags(load_balance_window=window,
                        load_balance_threshold=threshold),
            telemetry=telemetry,
        )

    @staticmethod
    def _bulk_transfer():
        # A plain operand (not ready at dispatch, not narrow) takes the
        # bulk path and therefore runs the load-balance rule.
        return Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1")

    def _diverts(self, telemetry):
        return [e for e in telemetry.events()
                if e.kind is EventKind.LB_DIVERT]

    def test_threshold_exactly_met_emits_no_overflow(self):
        tel = Telemetry(sink=RingBufferSink())
        sel = self._selector(tel)
        for _ in range(10):
            sel.record_injection(0, WireClass.B)
        segs = sel.select(self._bulk_transfer(), cycle=0)
        assert segs[0].wire_class is WireClass.B
        assert self._diverts(tel) == []
        assert "selection.lb_divert" not in tel.metrics.snapshot()

    def test_one_past_threshold_emits_overflow(self):
        tel = Telemetry(sink=RingBufferSink())
        sel = self._selector(tel)
        for _ in range(11):
            sel.record_injection(0, WireClass.B)
        segs = sel.select(self._bulk_transfer(), cycle=0)
        assert segs[0].wire_class is WireClass.PW
        (event,) = self._diverts(tel)
        assert event.cycle == 0
        assert event.attr("from") == "B"
        assert event.attr("to") == "PW"
        assert tel.metrics.snapshot()["selection.lb_divert"] == 1

    def test_window_shorter_than_history_stops_overflowing(self):
        """Injections older than the window age out: the same selector
        that overflowed at cycle 0 is quiet again 20 cycles later."""
        tel = Telemetry(sink=RingBufferSink())
        sel = self._selector(tel)
        for _ in range(12):
            sel.record_injection(0, WireClass.B)
        sel.select(self._bulk_transfer(), cycle=0)
        assert len(self._diverts(tel)) == 1
        sel.select(self._bulk_transfer(), cycle=20)
        assert len(self._diverts(tel)) == 1  # no new overflow event
        assert tel.metrics.snapshot()["selection.lb_divert"] == 1

    def test_divert_back_toward_bulk_is_not_an_overflow(self):
        """Traffic piled on the PW plane redirects *to* the bulk plane;
        that is the default target, not an overflow, so no event."""
        tel = Telemetry(sink=RingBufferSink())
        sel = self._selector(tel)
        for _ in range(11):
            sel.record_injection(0, WireClass.PW)
        segs = sel.select(self._bulk_transfer(), cycle=0)
        assert segs[0].wire_class is WireClass.B
        assert self._diverts(tel) == []
