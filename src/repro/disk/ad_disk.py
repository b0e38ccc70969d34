"""Disk-based AD engine (Sec. 4.1 of the paper).

Runs the FKNMatchAD heap consumption loop (:mod:`repro.core.matchloop`)
whose pop prefix the in-memory engine computes with numpy, but over
paged sorted-column files: each attribute comes from a page-buffered
disk cursor, and every page the walk crosses is recorded as sequential
or random by the pager.  Results carry both the attribute counters and
the page counters, plus a simulated response time under a
:class:`~repro.storage.DiskModel`.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple


from ..core import validation
from ..core.matchloop import run_frequent_k_n_match, run_k_n_match
from ..core.types import FrequentMatchResult, MatchResult, SearchStats, rank_by_frequency
from ..obs.spans import NULL_SPANS
from ..sorted_lists import AscendingDifferenceFrontier
from ..storage import DEFAULT_DISK_MODEL, DiskModel, Pager, SortedColumnStore
from .cursor import make_disk_cursors

__all__ = ["DiskADEngine"]


class DiskADEngine:
    """Frequent k-n-match over sorted columns stored page-wise on disk."""

    name = "disk-ad"

    def __init__(
        self,
        data,
        pager: Optional[Pager] = None,
        disk_model: DiskModel = DEFAULT_DISK_MODEL,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> None:
        self.disk_model = disk_model
        if pager is None:
            pager = Pager(disk_model.page_size, metrics=metrics)
        elif metrics is not None and pager.metrics is None:
            pager.metrics = metrics
        self._pager = pager
        self._metrics = metrics
        self._spans = spans
        self._store = SortedColumnStore(data, self._pager)

    @property
    def metrics(self):
        """The installed :class:`~repro.obs.MetricsRegistry`, or ``None``."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        self._pager.metrics = registry

    @property
    def spans(self):
        """The installed :class:`~repro.obs.SpanCollector`, or ``None``."""
        return self._spans

    @spans.setter
    def spans(self, collector) -> None:
        self._spans = collector

    @property
    def store(self) -> SortedColumnStore:
        return self._store

    @property
    def pager(self) -> Pager:
        return self._pager

    @property
    def cardinality(self) -> int:
        return self._store.cardinality

    @property
    def dimensionality(self) -> int:
        return self._store.dimensionality

    # ------------------------------------------------------------------
    def k_n_match(self, query, k: int, n: int) -> MatchResult:
        """KNMatchAD over the paged columns."""
        c, d = self.cardinality, self.dimensionality
        query, k, n = validation.validate_match_args(query, k, n, c, d)

        registry = self._metrics
        spans = self._spans or NULL_SPANS
        started = time.perf_counter() if registry is not None else 0.0
        baseline = self._io_snapshot()
        with spans.span(f"{self.name}/k_n_match", k=k, n=n):
            with spans.span("cursor_init", dimensions=d):
                frontier = AscendingDifferenceFrontier(
                    make_disk_cursors(self._store, query)
                )
            with spans.span("heap_consume"):
                ids, differences = run_k_n_match(frontier, c, k, n)
                spans.annotate(
                    heap_pops=frontier.pops,
                    attributes_retrieved=frontier.attributes_retrieved,
                )
        stats = self._make_stats(frontier, baseline)
        if registry is not None:
            from ..obs import observe_query

            observe_query(
                registry, self.name, "k_n_match", stats,
                time.perf_counter() - started, d,
            )
        return MatchResult(ids=ids, differences=differences, k=k, n=n, stats=stats)

    def frequent_k_n_match(
        self,
        query,
        k: int,
        n_range: Tuple[int, int],
        keep_answer_sets: bool = True,
    ) -> FrequentMatchResult:
        """FKNMatchAD over the paged columns."""
        c, d = self.cardinality, self.dimensionality
        query, k, (n0, n1) = validation.validate_frequent_args(
            query, k, n_range, c, d
        )

        registry = self._metrics
        spans = self._spans or NULL_SPANS
        started = time.perf_counter() if registry is not None else 0.0
        baseline = self._io_snapshot()
        with spans.span(f"{self.name}/frequent_k_n_match", k=k, n0=n0, n1=n1):
            with spans.span("cursor_init", dimensions=d):
                frontier = AscendingDifferenceFrontier(
                    make_disk_cursors(self._store, query)
                )
            with spans.span("heap_consume"):
                sets = run_frequent_k_n_match(frontier, c, k, n0, n1)
                spans.annotate(
                    heap_pops=frontier.pops,
                    attributes_retrieved=frontier.attributes_retrieved,
                )
            with spans.span("rank"):
                answer_sets = {n: ids[:k] for n, ids in sets.items()}
                chosen, frequencies = rank_by_frequency(answer_sets, k)
        stats = self._make_stats(frontier, baseline)
        if registry is not None:
            from ..obs import observe_query

            observe_query(
                registry, self.name, "frequent_k_n_match", stats,
                time.perf_counter() - started, d,
            )
        return FrequentMatchResult(
            ids=chosen,
            frequencies=frequencies,
            k=k,
            n_range=(n0, n1),
            answer_sets=answer_sets if keep_answer_sets else None,
            stats=stats,
        )

    def simulated_seconds(self, stats: SearchStats) -> float:
        """Response time of ``stats`` under this engine's disk model."""
        return self.disk_model.simulated_seconds(stats)

    # ------------------------------------------------------------------
    def _io_snapshot(self) -> Tuple[int, int]:
        recorder = self._pager.recorder
        recorder.forget_streams()  # measure each query cold
        return recorder.sequential_reads, recorder.random_reads

    def _make_stats(
        self, frontier: AscendingDifferenceFrontier, baseline: Tuple[int, int]
    ) -> SearchStats:
        recorder = self._pager.recorder
        return SearchStats(
            attributes_retrieved=frontier.attributes_retrieved,
            total_attributes=self._store.total_attributes,
            heap_pops=frontier.pops,
            binary_search_probes=self.dimensionality,
            sequential_page_reads=recorder.sequential_reads - baseline[0],
            random_page_reads=recorder.random_reads - baseline[1],
        )
