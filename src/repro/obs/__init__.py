"""repro.obs — lightweight, dependency-free metrics and tracing.

The paper's claims are *cost* claims (attributes retrieved, page
accesses), so the observability layer makes those costs first-class:

* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms with exact totals under threads;
* :class:`QueryTrace` — a per-query cost record derived from the
  :class:`~repro.core.types.SearchStats` every engine already returns;
* :func:`render_prometheus` / :func:`render_json` — deterministic
  exporters for scraping or archiving;
* :class:`SpanCollector` — hierarchical phase spans (where does the
  time go *inside* a query), with a slow-query log, a Chrome
  ``trace_event`` exporter and a text renderer;
* :func:`audit_result` / :func:`audit_engines` — the optimality
  auditor: each engine's attribute cost versus the Fagin-model lower
  bound of Thm 3.2/3.3 (AD audits at ratio 1.0 on tie-free data).

Instrumented components inherit one observer base
(:mod:`repro.obs.observer`): it holds the optional registry and span
collector, opens each query's root span and, where that span closes,
records the query's metrics from its ``SearchStats``.  The per-event
helpers return at once when handed ``None``, so no call site tests for
a registry.  With nothing installed a query pays a few no-op method
calls, and answers are bit-identical either way (instrumentation only
*reads* the stats the engines already produce).

See ``docs/observability.md`` for metric names, label conventions and
measured overhead.
"""

from .audit import (
    OptimalityReport,
    audit_engines,
    audit_result,
    examined_cost,
    fagin_lower_bound,
)
from .context import (
    TRACE_HEADER,
    TraceContext,
    TraceIdGenerator,
    format_trace_header,
    parse_trace_header,
)
from .export import registry_to_dict, render_json, render_prometheus
from .flight import FLIGHT_REASONS, FlightRecord, FlightRecorder
from .instrument import (
    observe_approx_query,
    observe_batch,
    observe_lsm_compaction,
    observe_lsm_flush,
    observe_lsm_mutation,
    observe_page_read,
    observe_pager_fault,
    observe_query,
    observe_serve_cache,
    observe_serve_request,
    observe_serve_shed,
    observe_shard_call,
    serve_inflight_gauge,
    update_lsm_gauges,
)
from .registry import (
    Counter,
    DEFAULT_COST_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .spans import (
    NULL_SPANS,
    PHASE_NAMES,
    Span,
    SpanCollector,
    chrome_trace_events,
    render_chrome_json,
    render_span_text,
    span_from_dict,
    span_to_dict,
    stitch_worker_spans,
)
from .trace import QueryTrace, epsilon_rounds_from_stats

__all__ = [
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "QueryTrace",
    "epsilon_rounds_from_stats",
    "Span",
    "SpanCollector",
    "NULL_SPANS",
    "PHASE_NAMES",
    "chrome_trace_events",
    "render_chrome_json",
    "render_span_text",
    "span_to_dict",
    "span_from_dict",
    "stitch_worker_spans",
    "TraceContext",
    "TraceIdGenerator",
    "TRACE_HEADER",
    "format_trace_header",
    "parse_trace_header",
    "FlightRecord",
    "FlightRecorder",
    "FLIGHT_REASONS",
    "OptimalityReport",
    "fagin_lower_bound",
    "examined_cost",
    "audit_result",
    "audit_engines",
    "render_prometheus",
    "render_json",
    "registry_to_dict",
    "observe_query",
    "observe_approx_query",
    "observe_batch",
    "observe_shard_call",
    "observe_page_read",
    "observe_pager_fault",
    "observe_serve_request",
    "observe_serve_shed",
    "observe_serve_cache",
    "observe_lsm_mutation",
    "observe_lsm_flush",
    "observe_lsm_compaction",
    "update_lsm_gauges",
    "serve_inflight_gauge",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_COST_BUCKETS",
]
