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

from typing import Optional, Tuple

from ..core import validation
from ..core.matchloop import run_frequent_k_n_match, run_k_n_match
from ..core.types import FrequentMatchResult, MatchResult, SearchStats, rank_by_frequency
from ..obs.observer import Observed
from ..sorted_lists import AscendingDifferenceFrontier
from ..storage import DEFAULT_DISK_MODEL, DiskModel, Pager, SortedColumnStore
from .cursor import make_disk_cursors

__all__ = ["DiskADEngine"]


class DiskADEngine(Observed):
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

    @Observed.metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        self._pager.metrics = registry

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

        baseline = self._io_snapshot()
        with self._observe("k_n_match", d, k=k, n=n) as q:
            with q.spans.span("cursor_init", dimensions=d):
                frontier = AscendingDifferenceFrontier(
                    make_disk_cursors(self._store, query)
                )
            with q.spans.span("heap_consume"):
                ids, differences = run_k_n_match(frontier, c, k, n)
                q.spans.annotate(
                    heap_pops=frontier.pops,
                    attributes_retrieved=frontier.attributes_retrieved,
                )
            q.stats = self._make_stats(frontier, baseline)
        return MatchResult(
            ids=ids, differences=differences, k=k, n=n, stats=q.stats
        )

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

        baseline = self._io_snapshot()
        with self._observe("frequent_k_n_match", d, k=k, n0=n0, n1=n1) as q:
            with q.spans.span("cursor_init", dimensions=d):
                frontier = AscendingDifferenceFrontier(
                    make_disk_cursors(self._store, query)
                )
            with q.spans.span("heap_consume"):
                sets = run_frequent_k_n_match(frontier, c, k, n0, n1)
                q.spans.annotate(
                    heap_pops=frontier.pops,
                    attributes_retrieved=frontier.attributes_retrieved,
                )
            with q.spans.span("rank"):
                answer_sets = {n: ids[:k] for n, ids in sets.items()}
                chosen, frequencies = rank_by_frequency(answer_sets, k)
            q.stats = self._make_stats(frontier, baseline)
        return FrequentMatchResult(
            ids=chosen,
            frequencies=frequencies,
            k=k,
            n_range=(n0, n1),
            answer_sets=answer_sets if keep_answer_sets else None,
            stats=q.stats,
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
