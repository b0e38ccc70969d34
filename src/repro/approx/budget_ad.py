"""``budget-ad``: early-terminated AD with a sound recall certificate.

The AD consumption order (paper §4, Thm 3.1) pops (point, attribute)
pairs in globally ascending difference order, which buys two facts at
any stopping moment:

* every point that completed ``n`` appearances is an exact answer
  member candidate with its *exact* n-match difference in hand;
* every point that did not has an n-match difference of at least the
  next frontier difference ``L`` — completing it needs one more
  attribute, and attributes arrive ascending.

``budget-ad`` spends an attribute budget on that frontier
(``approx_filter``), then exactly re-ranks the most-seen partial points
(``approx_rerank`` — appearance count is a free relevance signal the
frontier already paid for) and returns the best ``k`` of both pools in
canonical (difference, id) order.  Certification: a returned id whose
exact difference is ``<= L`` is **provably** in the exact tie-aware
top-k — fewer than ``k`` points can beat it, because anything unseen
costs at least ``L`` and anything cheaper already completed.  The
certificate is ``certified_count / k``.

``budget=None`` (or a budget covering every attribute) delegates to the
exact block-AD engine, so unbudgeted answers are byte-identical to
``mode="exact"``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core import validation
from ..core.ad_block import BlockADEngine
from ..core.anytime import consume_frontier
from ..core.types import SearchStats
from ..errors import ValidationError
from ..obs.observer import Observed
from ..sorted_lists import SortedColumns
from .params import (
    validate_budget,
    validate_candidate_multiplier,
    validate_target_recall,
)
from .types import ApproxResult

__all__ = ["BudgetADEngine", "DEFAULT_REFINE_MULTIPLIER"]

#: Partial points exactly re-ranked per answer slot when the caller
#: does not size the pool: 2k re-ranks cost ``2 k d`` attributes — noise
#: next to any useful frontier budget — and in practice recover most of
#: the uncertified tail.
DEFAULT_REFINE_MULTIPLIER = 2


class BudgetADEngine(Observed):
    """Budgeted AD search with per-query recall certificates."""

    name = "budget-ad"

    def __init__(self, data, metrics=None, spans=None) -> None:
        if isinstance(data, SortedColumns):
            self._columns = data
        else:
            self._columns = SortedColumns(data)
        self._metrics = metrics
        self._spans = spans
        self._exact_engine: Optional[BlockADEngine] = None

    @property
    def columns(self) -> SortedColumns:
        return self._columns

    @property
    def cardinality(self) -> int:
        return self._columns.cardinality

    @property
    def dimensionality(self) -> int:
        return self._columns.dimensionality

    def _exact(self) -> BlockADEngine:
        # Unmetered on purpose: delegated queries are budget-ad queries,
        # not block-ad queries — this engine records its own telemetry.
        if self._exact_engine is None:
            self._exact_engine = BlockADEngine(self._columns)
        return self._exact_engine

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
        """Budgeted k-n-match (see the module docstring).

        ``budget`` caps the attributes the AD frontier consumes
        (re-ranking partial candidates is charged to ``stats``, not the
        budget).  ``target_recall`` is the budget spelled as a fraction
        of the total attribute count; passing both is rejected.
        ``candidate_multiplier`` sizes the re-rank pool (default
        ``2k``).
        """
        c, d = self._columns.cardinality, self._columns.dimensionality
        query, k, n = validation.validate_match_args(query, k, n, c, d)
        budget = validate_budget(budget)
        target_recall = validate_target_recall(target_recall)
        multiplier = (
            validate_candidate_multiplier(candidate_multiplier)
            or DEFAULT_REFINE_MULTIPLIER
        )
        if budget is not None and target_recall is not None:
            raise ValidationError(
                "budget and target_recall are mutually exclusive; pass one"
            )
        total = self._columns.total_attributes
        if target_recall is not None:
            budget = (
                total
                if target_recall >= 1.0
                else int(math.ceil(target_recall * total))
            )

        delegated = budget is None or budget >= total
        meta = dict(delegated="block-ad") if delegated else dict(budget=budget)
        with self._observe("k_n_match", d, k=k, n=n, **meta) as q:
            if delegated:
                result = self._delegate_exact(query, k, n, budget)
            else:
                result = self._search(query, k, n, budget, multiplier, q.spans)
            q.stats = result.stats
            q.certified_recall = result.certified_recall
        return result

    # ------------------------------------------------------------------
    def _delegate_exact(self, query, k, n, budget) -> ApproxResult:
        """Unbudgeted answer: exact block-AD, certified in full."""
        exact = self._exact().k_n_match(query, k, n)
        return ApproxResult(
            ids=list(exact.ids),
            differences=list(exact.differences),
            k=k,
            n=n,
            engine=self.name,
            certified_recall=1.0,
            certified_count=k,
            unseen_lower_bound=None,
            exact=True,
            budget=budget,
            stats=exact.stats,
        )

    def _search(self, query, k, n, budget, multiplier, spans) -> ApproxResult:
        d = self._columns.dimensionality
        # Phase 1 (approx_filter): spend the budget on the AD frontier.
        with spans.span("approx_filter", budget=budget):
            frontier, appear, prefix_ids, prefix_diffs = consume_frontier(
                self._columns, query, k, n, budget
            )
            spans.annotate(
                attributes=int(frontier.attributes_retrieved),
                verified=len(prefix_ids),
            )
        bound = frontier.peek_difference()  # None <=> frontier exhausted

        # Phase 2 (approx_rerank): exactly re-rank the most-seen
        # partial points.  Skipped when the prefix already holds k
        # answers.
        chosen = np.empty(0, dtype=np.int64)
        refined_diffs = np.empty(0, dtype=np.float64)
        want = max(0, multiplier * k - len(prefix_ids))
        if want and len(prefix_ids) < k:
            partial = np.flatnonzero((appear > 0) & (appear < n))
            if partial.size:
                with spans.span("approx_rerank"):
                    order = np.lexsort((partial, -appear[partial]))
                    counts = appear[partial][order]
                    keep = order.size
                    if keep > want:
                        # Never cut inside an appearance-count tie:
                        # the pid tie-break is arbitrary, and dropping
                        # a tied candidate can make a *larger* budget
                        # return a worse answer (certified recall must
                        # be monotone in budget).
                        cutoff = counts[want - 1]
                        keep = int(
                            np.searchsorted(-counts, -cutoff, side="right")
                        )
                    chosen = partial[order[:keep]].astype(np.int64)
                    refined_diffs = np.partition(
                        np.abs(self._columns.data[chosen] - query),
                        n - 1,
                        axis=1,
                    )[:, n - 1]
                    spans.annotate(candidates=int(chosen.size))

        # Best k of both pools, canonical (difference, id) order.
        all_ids = np.concatenate(
            [np.asarray(prefix_ids, dtype=np.int64), chosen]
        )
        all_diffs = np.concatenate(
            [np.asarray(prefix_diffs, dtype=np.float64), refined_diffs]
        )
        order = np.lexsort((all_ids, all_diffs))[:k]
        out_ids = all_ids[order]
        out_diffs = all_diffs[order]

        limit = np.inf if bound is None else bound
        certified_count = int(np.count_nonzero(out_diffs <= limit))

        stats = SearchStats(
            attributes_retrieved=frontier.attributes_retrieved
            + int(chosen.size) * d,
            total_attributes=self._columns.total_attributes,
            heap_pops=frontier.pops,
            binary_search_probes=d,
            candidates_refined=int(chosen.size),
        )
        return ApproxResult(
            ids=[int(pid) for pid in out_ids],
            differences=[float(dif) for dif in out_diffs],
            k=k,
            n=n,
            engine=self.name,
            certified_recall=certified_count / k,
            certified_count=certified_count,
            unseen_lower_bound=bound,
            exact=certified_count == k,
            budget=budget,
            stats=stats,
        )
