"""Anytime (budgeted) k-n-match search.

In the multiple-system retrieval setting every sorted access is billed,
and a caller may not want to pay for the exact answer.  The AD
consumption order makes a principled *anytime* algorithm trivial:

* after any number of pops, the points that have completed ``n``
  appearances are exactly the best matches found so far, in true
  ascending n-match-difference order (Thm 3.1 applies to every prefix);
* any point that has NOT completed ``n`` appearances has an n-match
  difference of at least the next frontier difference — completing it
  needs one more attribute, and attributes arrive in ascending order.

So stopping after an attribute budget yields a verified prefix of the
exact answer plus a sound lower bound on everything unreturned.
:class:`AnytimeADEngine` packages that: run with ``attribute_budget``
and get an :class:`AnytimeResult` whose ``exact`` flag tells you whether
the budget sufficed and whose ``unseen_lower_bound`` certifies the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Union

import numpy as np

from ..errors import ValidationError
from ..sorted_lists import AscendingDifferenceFrontier, SortedColumns, make_cursors
from . import validation
from .types import SearchStats

__all__ = ["AnytimeADEngine", "AnytimeResult", "FrontierPrefix", "consume_frontier"]


class FrontierPrefix(NamedTuple):
    """Where :func:`consume_frontier` stopped, and what it had seen."""

    frontier: AscendingDifferenceFrontier
    #: per point: how many of its attributes have been popped
    appear: np.ndarray
    #: points that completed ``n`` appearances, in completion order
    ids: List[int]
    #: each of those points' exact n-match difference
    differences: List[float]


def consume_frontier(
    columns: SortedColumns,
    query: np.ndarray,
    k: int,
    n: int,
    budget: Optional[int] = None,
) -> FrontierPrefix:
    """Pop the AD frontier until ``k`` points complete ``n`` appearances.

    Stops early once ``budget`` attributes are retrieved (``None``: no
    budget) or the frontier runs dry.  Arguments are pre-validated.
    """
    frontier = AscendingDifferenceFrontier(make_cursors(columns, query))
    appear = np.zeros(columns.cardinality, dtype=np.int32)
    ids: List[int] = []
    differences: List[float] = []
    while len(ids) < k:
        if budget is not None and frontier.attributes_retrieved >= budget:
            break
        popped = frontier.pop()
        if popped is None:
            break
        pid, _slot, dif = popped
        appear[pid] += 1
        if appear[pid] == n:
            ids.append(pid)
            differences.append(dif)
    return FrontierPrefix(frontier, appear, ids, differences)


@dataclass
class AnytimeResult:
    """Answer of a budgeted k-n-match run.

    ``ids``/``differences`` hold the verified prefix (possibly all k).
    ``exact`` is True when the prefix has length k — i.e. the budget was
    enough for the exact answer.  ``unseen_lower_bound`` is a certified
    lower bound on the n-match difference of every point *not* in
    ``ids`` (``None`` only when every attribute was consumed).
    """

    ids: List[int]
    differences: List[float]
    k: int
    n: int
    exact: bool
    unseen_lower_bound: Optional[float]
    stats: SearchStats = field(default_factory=SearchStats)
    trace: Optional[object] = None

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(zip(self.ids, self.differences))


class AnytimeADEngine:
    """AD search that stops at an attribute budget."""

    name = "anytime-ad"

    def __init__(self, data: Union[np.ndarray, SortedColumns]) -> None:
        if isinstance(data, SortedColumns):
            self._columns = data
        else:
            self._columns = SortedColumns(data)

    @property
    def columns(self) -> SortedColumns:
        return self._columns

    @property
    def cardinality(self) -> int:
        return self._columns.cardinality

    @property
    def dimensionality(self) -> int:
        return self._columns.dimensionality

    def k_n_match(
        self, query, k: int, n: int, attribute_budget: Optional[int] = None
    ) -> AnytimeResult:
        """Budgeted k-n-match.

        ``attribute_budget`` caps the attributes retrieved (frontier
        fill included); ``None`` means unbounded, i.e. the exact AD run.
        The budget must allow at least the initial frontier fill
        (``2 * d`` attributes) to be meaningful; smaller budgets return
        an empty prefix with a trivial bound.
        """
        c, d = self._columns.cardinality, self._columns.dimensionality
        k = validation.validate_k(k, c)
        n = validation.validate_n(n, d)
        query = validation.as_query_array(query, d)
        if attribute_budget is not None and attribute_budget < 0:
            raise ValidationError(
                f"attribute_budget must be >= 0; got {attribute_budget}"
            )

        frontier, _appear, ids, differences = consume_frontier(
            self._columns, query, k, n, attribute_budget
        )
        stats = SearchStats(
            attributes_retrieved=frontier.attributes_retrieved,
            total_attributes=self._columns.total_attributes,
            heap_pops=frontier.pops,
            binary_search_probes=d,
        )
        return AnytimeResult(
            ids=ids,
            differences=differences,
            k=k,
            n=n,
            exact=len(ids) == k,
            unseen_lower_bound=frontier.peek_difference(),
            stats=stats,
        )
