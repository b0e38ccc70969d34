"""The observer base: an instrumented component's metrics and spans, once.

Every engine and fan-out component holds an optional
:class:`~repro.obs.MetricsRegistry` and an optional
:class:`~repro.obs.SpanCollector`.  :class:`Observed` holds both and
defines the ``metrics`` / ``spans`` properties for all of them, and
:meth:`Observed._observe` is the one place a query's instrumentation is
written::

    with self._observe("k_n_match", d, k=k, n=n) as q:
        with q.spans.span("cursor_init"):
            ...
        q.stats = stats

The context opens the root ``{name}/{kind}`` span (through
:data:`~repro.obs.spans.NULL_SPANS` when no collector is installed).
When the body exits normally and a registry is installed, it records the
query from what the body set on ``q``: ``q.stats`` as one
:func:`~repro.obs.instrument.observe_query` (or
:func:`~repro.obs.instrument.observe_approx_query` once
``q.certified_recall`` is set), or ``q.batch_stats`` as one query per
row, each charged an equal share of the wall time.  A body that raises
records nothing.  The metrics depend only on (engine, kind, stats,
seconds) — the paper's cost counters are already in ``SearchStats`` —
so the engines' answers are identical with or without a registry.

Per-event helpers outside a query (batches, shard calls, LSM
maintenance, page reads) are called directly: every helper in
:mod:`repro.obs.instrument` returns at once when handed ``None``.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..core.types import SearchStats
from .instrument import observe_approx_query, observe_query
from .spans import NULL_SPANS

__all__ = ["Observed", "QueryScope"]


class QueryScope:
    """One observed query; use through :meth:`Observed._observe`.

    ``spans`` is the collector the body opens its phase spans on;
    ``stats``, ``batch_stats`` and ``certified_recall`` are what the
    body hands back for the metrics.
    """

    __slots__ = (
        "_owner", "_kind", "_dimensionality", "_root", "_started",
        "spans", "stats", "batch_stats", "certified_recall",
    )

    def __init__(self, owner, kind: str, dimensionality: int, spans, root):
        self._owner = owner
        self._kind = kind
        self._dimensionality = dimensionality
        self._root = root
        self.spans = spans
        self.stats: Optional[SearchStats] = None
        self.batch_stats: Optional[List[SearchStats]] = None
        self.certified_recall: Optional[float] = None

    def __enter__(self) -> "QueryScope":
        self._started = time.perf_counter()
        self._root.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._root.__exit__(exc_type, exc, tb)
        registry = self._owner._metrics
        if exc_type is None and registry is not None:
            self._record(registry, time.perf_counter() - self._started)

    def _record(self, registry, seconds: float) -> None:
        name, d = self._owner.name, self._dimensionality
        if self.batch_stats is not None:
            # A lock-step batch has no per-query latency: each row is
            # one query of the unbatched kind, charged the mean.
            kind = self._kind.removesuffix("_batch")
            share = seconds / max(1, len(self.batch_stats))
            for stats in self.batch_stats:
                observe_query(registry, name, kind, stats, share, d)
        elif self.certified_recall is not None:
            observe_approx_query(
                registry, name, self._kind, self.stats, seconds, d,
                self.certified_recall,
            )
        elif self.stats is not None:
            observe_query(registry, name, self._kind, self.stats, seconds, d)


class Observed:
    """Base of every component that holds a registry and a collector.

    Subclasses assign ``_metrics`` / ``_spans`` in their constructor;
    those that call :meth:`_observe` also set ``name``, the ``engine``
    metric label and the root span's prefix.
    """

    _metrics = None
    _spans = None

    @property
    def metrics(self):
        """The installed :class:`~repro.obs.MetricsRegistry`, or ``None``."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry

    @property
    def spans(self):
        """The installed :class:`~repro.obs.SpanCollector`, or ``None``."""
        return self._spans

    @spans.setter
    def spans(self, collector) -> None:
        self._spans = collector

    def _observe(self, kind: str, dimensionality: int, **span_meta) -> QueryScope:
        """One query of ``kind``: root span ``{name}/{kind}``, then metrics."""
        spans = self._spans or NULL_SPANS
        root = spans.span(f"{self.name}/{kind}", **span_meta)
        return QueryScope(self, kind, dimensionality, spans, root)

    def _meter(self, kind: str, dimensionality: int) -> QueryScope:
        """Like :meth:`_observe` but without a root span.

        For a call this component only delegates, whose delegate traces
        the phases itself.
        """
        spans = self._spans or NULL_SPANS
        return QueryScope(
            self, kind, dimensionality, spans, NULL_SPANS.span(kind)
        )
