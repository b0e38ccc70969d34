"""Per-query tracing: one :class:`QueryTrace` per executed query.

A trace is the human-readable counterpart of the metric counters: where
the registry aggregates ("1.2M attributes retrieved across 40k
queries"), the trace answers "what did *this* query cost".  Traces are
derived purely from the :class:`~repro.core.types.SearchStats` every
engine already returns — the engines' answers and counters are
untouched — plus a wall-clock measurement taken by the caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.types import SearchStats
from .spans import NULL_SPANS

__all__ = ["QueryTrace", "build_query_trace", "epsilon_rounds_from_stats"]


def epsilon_rounds_from_stats(stats: SearchStats, dimensionality: int) -> int:
    """Epsilon rounds implied by a block engine's probe counter.

    The block engines spend ``d`` probes locating the query plus ``2d``
    probes (one window per dimension, two bisections each) per epsilon
    round, so ``rounds = (probes - d) / 2d``.  Heap-based AD and the
    scan engines never grow windows: their probe budget is at most the
    initial ``d`` locate pass, and this returns 0.
    """
    if dimensionality <= 0:
        return 0
    extra = stats.binary_search_probes - dimensionality
    if extra <= 0:
        return 0
    return extra // (2 * dimensionality)


@dataclass(frozen=True)
class QueryTrace:
    """What one query cost, across every cost axis the engines track.

    Attributes
    ----------
    engine:
        Name of the engine that executed the query (``"ad"``,
        ``"block-ad"``...).
    kind:
        ``"k_n_match"`` or ``"frequent_k_n_match"``.
    k / n_range:
        The query parameters (``n_range == (n, n)`` for plain
        k-n-match).
    epsilon_rounds:
        Window-growth rounds (block engines; 0 for heap AD and scans).
    attributes_retrieved / heap_pops / page_reads:
        Copied from the query's :class:`SearchStats`.
    wall_time_seconds:
        End-to-end wall clock of the engine call, measured by the
        caller that requested the trace.
    stats:
        The full underlying :class:`SearchStats` for anything not
        surfaced as a first-class field.
    trace_id:
        The request-level :class:`~repro.obs.TraceContext` id this
        query executed under, when one was in scope (served queries
        with a span collector installed); ``None`` for standalone
        calls.
    """

    engine: str
    kind: str
    k: int
    n_range: Tuple[int, int]
    epsilon_rounds: int
    attributes_retrieved: int
    heap_pops: int
    page_reads: int
    wall_time_seconds: float
    stats: Optional[SearchStats] = None
    trace_id: Optional[str] = None

    @classmethod
    def from_stats(
        cls,
        engine: str,
        kind: str,
        k: int,
        n_range: Tuple[int, int],
        stats: SearchStats,
        wall_time_seconds: float,
        dimensionality: int,
        trace_id: Optional[str] = None,
    ) -> "QueryTrace":
        """Build a trace from a result's stats plus a wall-time sample."""
        return cls(
            engine=engine,
            kind=kind,
            k=k,
            n_range=tuple(n_range),
            epsilon_rounds=epsilon_rounds_from_stats(stats, dimensionality),
            attributes_retrieved=stats.attributes_retrieved,
            heap_pops=stats.heap_pops,
            page_reads=stats.page_reads,
            wall_time_seconds=wall_time_seconds,
            stats=stats,
            trace_id=trace_id,
        )

    def summary(self) -> str:
        """One-line human-readable rendering (used by the CLI)."""
        text = (
            f"trace[{self.engine}/{self.kind}] k={self.k} "
            f"n={self.n_range[0]}:{self.n_range[1]} "
            f"rounds={self.epsilon_rounds} "
            f"attrs={self.attributes_retrieved} pops={self.heap_pops} "
            f"pages={self.page_reads} wall={self.wall_time_seconds * 1e3:.3f}ms"
        )
        if self.trace_id is not None:
            text += f" trace_id={self.trace_id}"
        return text


def build_query_trace(
    engine: str,
    kind: str,
    k: int,
    n_range: Tuple[int, int],
    stats: SearchStats,
    started: float,
    dimensionality: int,
    spans: Optional[object] = None,
) -> QueryTrace:
    """The :class:`QueryTrace` of a query that began at ``started``.

    ``engine`` is the facade's label for what ran; the wall time runs
    from ``started`` (a :func:`time.perf_counter` reading) to now, and
    the trace id is whatever request id is in scope on ``spans``.
    """
    return QueryTrace.from_stats(
        engine=engine,
        kind=kind,
        k=k,
        n_range=n_range,
        stats=stats,
        wall_time_seconds=time.perf_counter() - started,
        dimensionality=dimensionality,
        trace_id=(spans or NULL_SPANS).capture_context("trace_id"),
    )
