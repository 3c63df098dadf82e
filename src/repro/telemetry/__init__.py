"""Telemetry: cycle-stamped event tracing, metrics, trace export.

Three pillars (DESIGN.md section 10):

* **Structured event tracer** -- :class:`TraceEvent`/:class:`EventKind`
  cycle-stamped typed events, captured by bounded
  (:class:`RingBufferSink`) or streaming (:class:`JsonlSink`) sinks.
* **Metrics registry** -- deterministic counters, gauges and
  fixed-bucket histograms (:class:`MetricsRegistry`); no wall clock
  anywhere in this package (SIM102 covers it -- simulator scope).
* **Trace export** -- Chrome-trace / Perfetto JSON
  (:func:`write_chrome_trace`, :func:`validate_chrome_trace`) and
  sweep-level aggregation (:func:`summarize`, :func:`render_summary`).

Everything is wired through the :class:`Telemetry` handle;
:data:`NULL_TELEMETRY` is the zero-cost disabled default every
instrumented component falls back to.  Wall-clock *harness* profiling
(run timelines) lives in :mod:`repro.harness.profiling`, which reuses
this package's Chrome-trace schema.
"""

from typing import TYPE_CHECKING

from .. import _lazy

if TYPE_CHECKING:
    from .aggregate import TraceSummary, render_summary, summarize
    from .chrometrace import (
        assert_valid_chrome_trace,
        chrome_events,
        chrome_trace,
        instant_timestamps,
        load_chrome_trace,
        trace_categories,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from .events import (
        ALL_CATEGORIES,
        EVENT_CATEGORY,
        EventKind,
        TraceEvent,
        make_event,
    )
    from .handle import NULL_TELEMETRY, Telemetry
    from .metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        merge_counters,
    )
    from .sinks import (
        EventSink,
        JsonlSink,
        NullSink,
        RingBufferSink,
        read_jsonl_events,
    )

__all__ = [
    "ALL_CATEGORIES",
    "EVENT_CATEGORY",
    "EventKind",
    "TraceEvent",
    "make_event",
    "NULL_TELEMETRY",
    "Telemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_counters",
    "EventSink",
    "JsonlSink",
    "NullSink",
    "RingBufferSink",
    "read_jsonl_events",
    "TraceSummary",
    "render_summary",
    "summarize",
    "assert_valid_chrome_trace",
    "chrome_events",
    "chrome_trace",
    "instant_timestamps",
    "load_chrome_trace",
    "trace_categories",
    "validate_chrome_trace",
    "write_chrome_trace",
]

__getattr__, __dir__ = _lazy.attach(__name__)
