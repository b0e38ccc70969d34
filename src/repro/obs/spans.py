"""Hierarchical phase spans: where does the time go *inside* a query?

The metrics layer (:mod:`repro.obs.registry`) aggregates whole-query
totals and :class:`~repro.obs.trace.QueryTrace` snapshots one query's
counters — neither can say whether a slow query spent its time in
cursor initialisation, heap consumption, window growth or the shard
merge.  A :class:`SpanCollector` answers that: instrumented code opens
named *spans* (``with spans.span("cursor_init"): ...``) that nest into
a tree per query, timed with the monotonic clock.

Design constraints (same discipline as :class:`~repro.obs.MetricsRegistry`,
see ``docs/observability.md``):

* **Strictly zero-cost when absent.**  Instrumented components hold a
  collector reference that may be ``None`` and guard every span with
  ``if spans is not None``; with no collector installed a hot path pays
  one attribute load and one ``is None`` branch, nothing else — no
  no-op context managers, no dynamic dispatch.  The batch smoke
  benchmark asserts this on every run.
* **Answers never change.**  Spans only *time* existing work; the
  values flowing through the engines are untouched, so results are
  bit-identical with and without a collector.
* **Thread-confined trees.**  The span stack is thread-local: a span
  opened on a worker thread becomes a root on that thread, so the
  executor's shard spans and the scatter-gather fan-out appear as
  sibling traces on their own ``thread_id`` rows (exactly how the
  Chrome ``trace_event`` viewer lays them out).  Finished root spans
  are published to a lock-guarded ring buffer shared by all threads.

On top of the collector sit a slow-query log (roots slower than a
threshold land in their own ring buffer), a Chrome ``trace_event`` JSON
exporter (loadable in ``chrome://tracing`` / Perfetto) and a
deterministic text renderer for terminals and golden tests.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ValidationError

__all__ = [
    "Span",
    "SpanCollector",
    "chrome_trace_events",
    "render_chrome_json",
    "render_span_text",
    "span_to_dict",
    "span_from_dict",
    "stitch_worker_spans",
    "PHASE_NAMES",
]

#: The span phase vocabulary.  Instrumented components only open spans
#: with these names (plus engine-qualified roots like ``"ad/k_n_match"``),
#: so dashboards and tests can rely on one spelling per phase.  See the
#: phase table in ``docs/observability.md``.
PHASE_NAMES: Tuple[str, ...] = (
    "cursor_init",    # build the 2d direction cursors / frontier heap
    "heap_consume",   # the ascending-difference pop loop (Fig. 4/6 body)
    "round",          # one epsilon round of a block engine
    "window_grow",    # the whole window-growth loop (all rounds)
    "refine",         # exact refinement of window candidates
    "rank",           # answer-set truncation + frequency ranking
    "lockstep",       # the batch engine's lock-step multi-query rounds
    "finalize",       # per-query result assembly after a lock-step run
    "batch_shard",    # one executor shard (a chunk of a query batch)
    "shard_fanout",   # scatter a query to every database shard
    "shard_call",     # one shard's engine call within a fan-out
    "merge",          # gather: merge per-part answers to the global one
    "serve_handle",   # one HTTP request through the serving layer
    "serve_cache",    # a result-cache lookup or store within a request
    "plan",           # an engine="auto" planning decision (estimate+probes)
    "approx_filter",  # approx tier: budgeted frontier / sketch scoring
    "approx_rerank",  # approx tier: exact re-rank of filtered candidates
    "wal_append",     # LSM store: append one mutation record to the WAL
    "memtable_scan",  # LSM/dynamic store: brute-force scan of the memtable
    "segment_search", # LSM/dynamic store: one immutable segment's search
    "flush",          # LSM store: freeze the memtable into an L0 segment
    "compact",        # LSM store: merge one level into the next
)


class Span:
    """One timed phase: name, ``[start, end)`` on the monotonic clock.

    ``meta`` carries small scalar annotations (counters, parameters);
    ``children`` are the phases opened while this one was on top of the
    stack.  ``thread_id`` is the identity of the thread that opened the
    span — always the same for every span of one tree.
    """

    __slots__ = ("name", "start", "end", "meta", "children", "thread_id")

    def __init__(
        self, name: str, start: float, thread_id: int, meta: Dict[str, object]
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.meta = meta
        self.children: List["Span"] = []
        self.thread_id = thread_id

    @property
    def duration_seconds(self) -> float:
        return self.end - self.start

    def iter_spans(self) -> Iterable["Span"]:
        """This span and every descendant, depth-first, children in order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> List["Span"]:
        """Every span called ``name`` in this tree (depth-first order)."""
        return [span for span in self.iter_spans() if span.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Span({self.name!r}, {self.duration_seconds * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class _SpanContext:
    """The context manager returned by :meth:`SpanCollector.span`."""

    __slots__ = ("_collector", "_span")

    def __init__(self, collector: "SpanCollector", span: Span) -> None:
        self._collector = collector
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._collector._finish(self._span)


class SpanCollector:
    """Collects span trees per thread; keeps the most recent roots.

    Parameters
    ----------
    capacity:
        Ring-buffer size for finished root spans (oldest evicted first).
    slow_threshold_seconds:
        Roots at least this slow are *also* kept in the slow-query log
        ring buffer; ``None`` disables the log entirely.
    slow_capacity:
        Ring-buffer size of the slow-query log.

    >>> spans = SpanCollector()
    >>> with spans.span("demo"):
    ...     with spans.span("phase", items=3):
    ...         pass
    >>> [s.name for s in spans.traces()[0].iter_spans()]
    ['demo', 'phase']
    """

    def __init__(
        self,
        capacity: int = 64,
        slow_threshold_seconds: Optional[float] = None,
        slow_capacity: int = 32,
    ) -> None:
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1; got {capacity}")
        if slow_capacity < 1:
            raise ValidationError(
                f"slow_capacity must be >= 1; got {slow_capacity}"
            )
        if slow_threshold_seconds is not None and slow_threshold_seconds < 0:
            raise ValidationError(
                "slow_threshold_seconds must be >= 0 or None; "
                f"got {slow_threshold_seconds}"
            )
        self.slow_threshold_seconds = slow_threshold_seconds
        #: monotonic-clock origin; Chrome timestamps are relative to it.
        self.epoch = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=capacity)
        self._slow: deque = deque(maxlen=slow_capacity)
        self._dropped = 0

    # ------------------------------------------------------------------
    def span(self, name: str, **meta) -> _SpanContext:
        """Open a span; use as ``with collector.span("phase"): ...``.

        The span becomes a child of the span currently open on *this*
        thread, or a new root if none is.  ``meta`` keyword values are
        stored on the span verbatim (keep them small scalars).
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, time.perf_counter(), threading.get_ident(), meta)
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return _SpanContext(self, span)

    def annotate(self, **meta) -> None:
        """Attach ``meta`` to the innermost open span of this thread.

        A no-op when no span is open, so call sites never need their own
        stack checks.
        """
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].meta.update(meta)

    def capture_context(self, key: str = "trace_id") -> Optional[object]:
        """The innermost ``key`` annotation on this thread's open stack.

        Fan-out components call this on the *request* thread before
        handing work to pool threads, then re-attach the value to the
        spans they open over there — span trees are thread-confined, so
        this is how a worker-thread root stays correlated with the
        request that spawned it.  ``None`` when no open span carries the
        key (or no span is open at all).
        """
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        for span in reversed(stack):
            if key in span.meta:
                return span.meta[key]
        return None

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._local.stack
        # Exceptions unwind context managers innermost-first, so the
        # finished span is always on top.
        stack.pop()
        if not stack:
            self._publish(span)

    def _publish(self, root: Span) -> None:
        threshold = self.slow_threshold_seconds
        with self._lock:
            if len(self._traces) == self._traces.maxlen:
                self._dropped += 1
            self._traces.append(root)
            if threshold is not None and root.duration_seconds >= threshold:
                self._slow.append(root)

    # ------------------------------------------------------------------
    def traces(self) -> List[Span]:
        """Snapshot of the retained root spans, oldest first."""
        with self._lock:
            return list(self._traces)

    def slow_traces(self) -> List[Span]:
        """Snapshot of the slow-query log, oldest first."""
        with self._lock:
            return list(self._slow)

    @property
    def dropped(self) -> int:
        """Roots evicted from the ring buffer since the last clear."""
        return self._dropped

    def clear(self) -> None:
        """Drop all retained traces (open spans are unaffected)."""
        with self._lock:
            self._traces.clear()
            self._slow.clear()
            self._dropped = 0


# ----------------------------------------------------------------------
# Serialisation + cross-process stitching
# ----------------------------------------------------------------------
def span_to_dict(span: Span) -> Dict:
    """``span`` (and its subtree) as plain JSON-safe dicts.

    The wire/debug form used by the procpool ``ok`` envelope and the
    serve debug endpoints; :func:`span_from_dict` round-trips it.
    """
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "thread_id": span.thread_id,
        "meta": {key: span.meta[key] for key in sorted(span.meta)},
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(payload: Dict) -> Span:
    """Rebuild a :class:`Span` tree from :func:`span_to_dict` output."""
    span = Span(
        str(payload["name"]),
        float(payload["start"]),
        int(payload["thread_id"]),
        dict(payload.get("meta", {})),
    )
    span.end = float(payload["end"])
    for child in payload.get("children", ()):
        span.children.append(span_from_dict(child))
    return span


def _shift_tree(span: Span, offset: float, thread_id: int) -> None:
    span.start += offset
    span.end += offset
    span.thread_id = thread_id
    for child in span.children:
        _shift_tree(child, offset, thread_id)


def stitch_worker_spans(
    parent: Span, worker_trees: List[Span], thread_id: int
) -> None:
    """Graft worker-process span trees under ``parent`` (in place).

    Worker processes time spans on *their own* monotonic clocks, which
    share no origin with the coordinator's.  Absolute alignment across
    processes is impossible without a clock-sync protocol, so we use
    the honest convention: rebase the worker trees so their earliest
    root start coincides with ``parent.start`` (the coordinator-side
    ``shard_call`` marker).  Durations are preserved exactly; only the
    origin moves.  Every stitched span takes ``thread_id`` (pass the
    worker pid) so Chrome-trace export lays each worker out on its own
    row, and ``parent.end`` is extended to cover the grafted trees.
    """
    if not worker_trees:
        return
    earliest = min(tree.start for tree in worker_trees)
    offset = parent.start - earliest
    for tree in worker_trees:
        _shift_tree(tree, offset, thread_id)
        parent.children.append(tree)
        if tree.end > parent.end:
            parent.end = tree.end


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def chrome_trace_events(
    traces: Iterable[Span],
    epoch: float = 0.0,
    process_name: str = "repro",
) -> Dict:
    """``traces`` as a Chrome ``trace_event`` JSON object (dict form).

    Emits one complete (``"ph": "X"``) event per span, with microsecond
    timestamps relative to ``epoch`` (pass the collector's
    :attr:`~SpanCollector.epoch` so concurrent traces line up), the
    span's thread id as ``tid`` and its ``meta`` as ``args``.  The
    result loads directly in ``chrome://tracing`` and Perfetto.
    """
    events: List[Dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for root in traces:
        for span in root.iter_spans():
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": "repro",
                    "pid": 0,
                    "tid": span.thread_id,
                    "ts": (span.start - epoch) * 1e6,
                    "dur": span.duration_seconds * 1e6,
                    "args": {
                        key: value for key, value in sorted(span.meta.items())
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_chrome_json(
    traces: Iterable[Span], epoch: float = 0.0, indent: int = 2
) -> str:
    """:func:`chrome_trace_events` as JSON text (deterministic key order)."""
    return json.dumps(
        chrome_trace_events(traces, epoch=epoch), indent=indent, sort_keys=True
    )


def _format_meta(meta: Dict[str, object]) -> str:
    if not meta:
        return ""
    parts = [f"{key}={meta[key]}" for key in sorted(meta)]
    return "  [" + " ".join(parts) + "]"


def render_span_text(root: Span, show_times: bool = True) -> str:
    """A fixed-layout text tree of one trace.

    Deterministic given the span tree: children in recorded order, meta
    keys sorted, box-drawing guides.  ``show_times=False`` drops the
    duration column so structure can be golden-file tested.
    """
    lines: List[str] = []

    def emit(span: Span, prefix: str, child_prefix: str) -> None:
        duration = (
            f" {span.duration_seconds * 1e3:.3f}ms" if show_times else ""
        )
        lines.append(f"{prefix}{span.name}{duration}{_format_meta(span.meta)}")
        for index, child in enumerate(span.children):
            last = index == len(span.children) - 1
            connector = "`- " if last else "|- "
            extension = "   " if last else "|  "
            emit(child, child_prefix + connector, child_prefix + extension)

    emit(root, "", "")
    return "\n".join(lines)
