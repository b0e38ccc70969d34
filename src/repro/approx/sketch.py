"""``pivot-sketch``: permutation filtering for the n-match difference.

Permutation search (Naidan & Boytsov, "Permutation Search Methods are
Efficient, Yet Faster Search is Possible") indexes each point by the
*order* in which a fixed pivot set would rank it — close points see the
pivots in a similar order even when the underlying dissimilarity is
non-metric, which the n-match difference is (it picks its ``n`` best
dimensions per pair, so the triangle inequality is off the table and
classic metric pruning with it; Boytsov & Nyberg's non-metric pruning
work motivates filtering by rank agreement instead of by distance
bounds).

Build (once, chunked): Floyd-sample ``p`` pivots from the data (the
advisor's :func:`~repro.core.advisor.sample_row_ids`), compute every
point's n-match difference to each pivot at a fixed reference ``n``
(``ceil(d/2)`` by default — the middle of the range the sketch must
serve), and store each point's pivot *rank permutation* as a
``(cardinality, p)`` int32 matrix.

Query (``approx_filter``): rank the pivots around the query the same
way and score every point by Spearman footrule distance between rank
vectors — one vectorised ``O(c p)`` pass, no per-point attribute
access.  The best ``candidate_multiplier * k`` points by (score, id)
are then re-ranked *exactly* (``approx_rerank``) with the column data,
so every returned difference is exact and the canonical
(difference, id) order is preserved.

The sketch certifies nothing (``certified_recall == 0.0``) unless the
candidate set covers the whole database, in which case the "filter" was
a full exact scan and the answer is canonical.  When a sound
certificate matters more than wall clock, use ``budget-ad``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core import validation
from ..core.advisor import sample_row_ids
from ..core.types import SearchStats
from ..errors import ValidationError
from ..obs.observer import Observed
from ..sorted_lists import SortedColumns
from .params import (
    multiplier_from_target_recall,
    validate_budget,
    validate_candidate_multiplier,
    validate_target_recall,
)
from .types import ApproxResult

__all__ = [
    "PivotSketchEngine",
    "PivotSketchIndex",
    "DEFAULT_PIVOTS",
    "DEFAULT_CANDIDATE_MULTIPLIER",
]

#: Pivot count: 16 ranks fit one cache line per point and already
#: separate clusters well at the dimensionalities the paper studies.
DEFAULT_PIVOTS = 16

#: Candidates re-ranked exactly per answer slot when the caller sizes
#: nothing: 8k exact re-ranks keep recall high on clustered data while
#: touching a small fraction of a large database.
DEFAULT_CANDIDATE_MULTIPLIER = 8

_BLOCK_ROWS = 4096  # build-time chunk: bounds the (rows, p, d) temporary


class PivotSketchIndex:
    """The precomputed pivot rank-permutation matrix (see module doc)."""

    def __init__(
        self,
        columns: SortedColumns,
        pivots: int = DEFAULT_PIVOTS,
        seed: int = 0,
        reference_n: Optional[int] = None,
    ) -> None:
        data = columns.data
        c, d = data.shape
        pivots = validation._as_int("pivots", pivots)
        if pivots < 1:
            raise ValidationError(f"pivots must be >= 1; got {pivots}")
        if reference_n is None:
            reference_n = max(1, math.ceil(d / 2))
        self.reference_n = validation.validate_n(reference_n, d)
        self.seed = int(seed)
        self.pivot_ids = sample_row_ids(c, pivots, seed=seed)
        self.pivot_rows = np.ascontiguousarray(data[self.pivot_ids])
        p = self.pivot_ids.shape[0]
        ranks = np.empty((c, p), dtype=np.int32)
        for start in range(0, c, _BLOCK_ROWS):
            block = data[start : start + _BLOCK_ROWS]
            diffs = np.abs(block[:, None, :] - self.pivot_rows[None, :, :])
            nmatch = np.partition(diffs, self.reference_n - 1, axis=2)[
                :, :, self.reference_n - 1
            ]
            order = np.argsort(nmatch, axis=1, kind="stable")
            ranks[start : start + block.shape[0]] = np.argsort(
                order, axis=1, kind="stable"
            )
        self.ranks = ranks

    @property
    def pivot_count(self) -> int:
        return self.pivot_ids.shape[0]

    @property
    def nbytes(self) -> int:
        """Sketch memory: the rank matrix plus the pivot rows."""
        return self.ranks.nbytes + self.pivot_rows.nbytes

    def query_ranks(self, query: np.ndarray) -> np.ndarray:
        """The query's pivot rank permutation (same recipe as build)."""
        diffs = np.abs(query[None, :] - self.pivot_rows)
        nmatch = np.partition(diffs, self.reference_n - 1, axis=1)[
            :, self.reference_n - 1
        ]
        order = np.argsort(nmatch, kind="stable")
        return np.argsort(order, kind="stable").astype(np.int32)


class PivotSketchEngine(Observed):
    """Permutation-sketch filter + exact re-rank (see module docstring)."""

    name = "pivot-sketch"

    def __init__(
        self,
        data,
        pivots: int = DEFAULT_PIVOTS,
        seed: int = 0,
        reference_n: Optional[int] = None,
        metrics=None,
        spans=None,
    ) -> None:
        if isinstance(data, SortedColumns):
            self._columns = data
        else:
            self._columns = SortedColumns(data)
        self._pivots = pivots
        self._seed = seed
        self._reference_n = reference_n
        self._index: Optional[PivotSketchIndex] = None
        self._metrics = metrics
        self._spans = spans

    @property
    def columns(self) -> SortedColumns:
        return self._columns

    @property
    def cardinality(self) -> int:
        return self._columns.cardinality

    @property
    def dimensionality(self) -> int:
        return self._columns.dimensionality

    @property
    def index(self) -> PivotSketchIndex:
        """The sketch, built lazily on first use (then reused)."""
        if self._index is None:
            self._index = PivotSketchIndex(
                self._columns,
                pivots=self._pivots,
                seed=self._seed,
                reference_n=self._reference_n,
            )
        return self._index

    # ------------------------------------------------------------------
    def k_n_match(
        self,
        query,
        k: int,
        n: int,
        budget: Optional[int] = None,
        target_recall: Optional[float] = None,
        candidate_multiplier: Optional[int] = None,
    ) -> ApproxResult:
        """Sketch-filtered k-n-match.

        The candidate set is sized by the first of
        ``candidate_multiplier`` (``multiplier * k`` candidates),
        ``target_recall`` (mapped through
        :func:`~repro.approx.params.multiplier_from_target_recall`;
        1.0 re-ranks everything, i.e. an exact scan) or ``budget``
        (``budget // d`` candidates — the re-rank is what touches
        attributes).  Default: ``8k`` candidates.
        """
        c, d = self._columns.cardinality, self._columns.dimensionality
        query, k, n = validation.validate_match_args(query, k, n, c, d)
        budget = validate_budget(budget)
        target_recall = validate_target_recall(target_recall)
        candidate_multiplier = validate_candidate_multiplier(
            candidate_multiplier
        )
        if budget is not None and target_recall is not None:
            raise ValidationError(
                "budget and target_recall are mutually exclusive; pass one"
            )
        if candidate_multiplier is not None:
            count = min(c, candidate_multiplier * k)
        elif target_recall is not None:
            multiplier = multiplier_from_target_recall(target_recall)
            count = c if multiplier == 0 else min(c, multiplier * k)
        elif budget is not None:
            count = min(c, budget // d)
        else:
            count = min(c, DEFAULT_CANDIDATE_MULTIPLIER * k)

        with self._observe("k_n_match", d, k=k, n=n, candidates=count) as q:
            result = self._search_impl(query, k, n, count, budget, q.spans)
            q.stats = result.stats
            q.certified_recall = result.certified_recall
        return result

    def _search_impl(self, query, k, n, count, budget, spans) -> ApproxResult:
        c, d = self._columns.cardinality, self._columns.dimensionality
        index = self.index
        p = index.pivot_count

        # Phase 1 (approx_filter): footrule-score every point against
        # the query's pivot permutation; pick the best `count` by the
        # deterministic (score, id) composite key.
        with spans.span("approx_filter", pivots=p):
            if count >= c:
                candidates = np.arange(c, dtype=np.int64)
            elif count == 0:
                candidates = np.empty(0, dtype=np.int64)
            else:
                qranks = index.query_ranks(query)
                scores = np.abs(
                    index.ranks.astype(np.int64) - qranks[None, :]
                ).sum(axis=1)
                composite = scores * c + np.arange(c, dtype=np.int64)
                candidates = np.argpartition(composite, count - 1)[
                    :count
                ].astype(np.int64)
            spans.annotate(candidates=int(candidates.size))

        # Phase 2 (approx_rerank): exact n-match differences for the
        # candidates, canonical (difference, id) top-k.
        with spans.span("approx_rerank"):
            rows = self._columns.data[candidates]
            diffs = np.partition(np.abs(rows - query), n - 1, axis=1)[:, n - 1]
            order = np.lexsort((candidates, diffs))[:k]
            out_ids, out_diffs = candidates[order], diffs[order]

        full_scan = candidates.size >= c
        certified_count = k if full_scan else 0
        stats = SearchStats(
            attributes_retrieved=int(candidates.size) * d
            + (0 if full_scan else p * d),
            total_attributes=self._columns.total_attributes,
            candidates_refined=int(candidates.size),
            approximation_entries_scanned=0 if full_scan else c * p,
        )
        return ApproxResult(
            ids=[int(pid) for pid in out_ids],
            differences=[float(dif) for dif in out_diffs],
            k=k,
            n=n,
            engine=self.name,
            certified_recall=certified_count / k,
            certified_count=certified_count,
            unseen_lower_bound=None,
            exact=full_scan,
            budget=budget,
            stats=stats,
        )
