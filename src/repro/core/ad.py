"""The AD (Ascending Difference) algorithm — the paper's core contribution.

Implements ``KNMatchAD`` (Fig. 4) and ``FKNMatchAD`` (Fig. 6) over the
sorted-column organisation: attributes are consumed in globally ascending
order of their difference to the query's attribute in the corresponding
dimension.  The first point id seen ``n`` times is the 1-n-match; the
algorithm stops once ``k`` ids have been seen ``n`` times (``n1`` times for
the frequent variant).

Correctness (Thm 3.1): the i-th point to reach ``n`` appearances has the
i-th smallest n-match difference.  Optimality (Thm 3.2/3.3): among all
algorithms that are correct on every dataset instance, AD retrieves the
fewest individual attributes.  The engine exposes exact counters so tests
can verify both claims empirically.

The pop order, and how the engine reproduces it without a heap.  The
frontier (:class:`~repro.sorted_lists.AscendingDifferenceFrontier`)
holds one entry per slot, keyed ``(difference, slot, id)``: slot ``2j``
walks dimension ``j`` down from the query's split position, slot
``2j + 1`` walks it up, and the difference is the cursor's own float
``abs(value - q_j)``, which never decreases along a walk.  Its pops are
therefore a stable sort of all attributes by (difference, slot, position
along the walk).  A point completes ``n`` appearances at the pop of its
*n-th key*, the n-th smallest of its own attributes' keys, and the loop
stops at the k-th smallest ``n1``-th key.  :func:`pop_prefix` computes
exactly that with numpy: block-AD's window growth finds candidates, their
exact rows give the n-th keys (ties ordered by slot and walk position),
and binary searches on each slot's monotone differences give how many
attributes each slot has popped at the stop — hence ``heap_pops`` and
``attributes_retrieved`` (one more per slot for its frontier entry, up to
the slot's length).  Ids, differences, answer sets and every counter
equal the heap loop's (``tests/test_ad_heap_identity.py``); the counters
are the paper's access model, not a count of numpy calls.  The heap loop
itself stays in :mod:`repro.core.matchloop` for the disk engine and the
IR middleware.

Answer-set semantics of the frequent variant: Definition 4 counts
frequencies over answer sets of size exactly ``k``; Fig. 6's literal
pseudo-code can leave more than ``k`` ids in ``S[n]`` for ``n < n1``
(points that complete ``n`` appearances after the k-th did).  Because ids
enter ``S[n]`` in ascending n-match-difference order, truncating each list
to its first ``k`` entries recovers Definition 4 exactly; pass
``truncate_answer_sets=False`` to reproduce the literal pseudo-code
instead.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..obs.observer import Observed
from ..sorted_lists import SortedColumns
from . import validation
from .ad_block import candidate_mask, grow_windows
from .types import FrequentMatchResult, MatchResult, SearchStats, rank_by_frequency

__all__ = ["ADEngine"]


class ADEngine(Observed):
    """In-memory AD search over sorted columns.

    Accepts either a raw ``(c, d)`` array (sorted columns are built once
    at construction) or a prebuilt :class:`SortedColumns`, so the same
    substrate can be shared between engines.  An optional
    :class:`~repro.obs.MetricsRegistry` (``metrics=``) makes the engine
    record per-query counters, and an optional
    :class:`~repro.obs.SpanCollector` (``spans=``) records phase spans
    (``cursor_init``: the split binary searches; ``heap_consume``: the
    pop prefix; ``rank``).  With no collector the same phases run under
    the no-op :data:`~repro.obs.spans.NULL_SPANS`, and answers are
    identical either way.
    """

    name = "ad"

    def __init__(
        self,
        data: Union[np.ndarray, SortedColumns],
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> None:
        if isinstance(data, SortedColumns):
            self._columns = data
        else:
            self._columns = SortedColumns(data)
        self._metrics = metrics
        self._spans = spans

    @property
    def columns(self) -> SortedColumns:
        """The sorted-column substrate this engine searches."""
        return self._columns

    @property
    def data(self) -> np.ndarray:
        return self._columns.data

    @property
    def cardinality(self) -> int:
        return self._columns.cardinality

    @property
    def dimensionality(self) -> int:
        return self._columns.dimensionality

    # ------------------------------------------------------------------
    # KNMatchAD (Fig. 4)
    # ------------------------------------------------------------------
    def k_n_match(self, query, k: int, n: int) -> MatchResult:
        """Algorithm ``KNMatchAD``: the k-n-match set of ``query``.

        Returns ids in the order they complete ``n`` appearances, which by
        Thm 3.1 is ascending n-match-difference order; ``differences[i]``
        is the difference of the attribute whose pop completed the i-th
        answer, i.e. that answer's exact n-match difference.
        """
        c, d = self._columns.cardinality, self._columns.dimensionality
        query, k, n = validation.validate_match_args(query, k, n, c, d)

        with self._observe("k_n_match", d, k=k, n=n) as q:
            with q.spans.span("cursor_init", dimensions=d):
                splits = self._columns.locate_all(query)
            with q.spans.span("heap_consume"):
                prefix = pop_prefix(self._columns, query, splits, k, n, n)
                q.spans.annotate(
                    heap_pops=prefix.heap_pops,
                    attributes_retrieved=prefix.attributes_retrieved,
                )
            q.stats = self._make_stats(prefix)
        return MatchResult(
            ids=prefix.sets[n],
            differences=prefix.differences,
            k=k,
            n=n,
            stats=q.stats,
        )

    # ------------------------------------------------------------------
    # FKNMatchAD (Fig. 6)
    # ------------------------------------------------------------------
    def frequent_k_n_match(
        self,
        query,
        k: int,
        n_range: Tuple[int, int],
        keep_answer_sets: bool = True,
        truncate_answer_sets: bool = True,
    ) -> FrequentMatchResult:
        """Algorithm ``FKNMatchAD``: the frequent k-n-match set.

        Runs the ascending-difference consumption until ``k`` ids have
        appeared ``n1`` times; at that moment every k-n-match answer set
        for ``n in [n0, n1]`` is already known (ids enter ``S[n]`` in
        ascending difference order), and the k most frequent ids across
        the (truncated) sets are returned.
        """
        c, d = self._columns.cardinality, self._columns.dimensionality
        query, k, (n0, n1) = validation.validate_frequent_args(
            query, k, n_range, c, d
        )

        # the untruncated sets are every id the loop completes
        full = not truncate_answer_sets
        with self._observe("frequent_k_n_match", d, k=k, n0=n0, n1=n1) as q:
            with q.spans.span("cursor_init", dimensions=d):
                splits = self._columns.locate_all(query)
            with q.spans.span("heap_consume"):
                prefix = pop_prefix(
                    self._columns, query, splits, k, n0, n1, full
                )
                q.spans.annotate(
                    heap_pops=prefix.heap_pops,
                    attributes_retrieved=prefix.attributes_retrieved,
                )
            with q.spans.span("rank"):
                chosen, frequencies = rank_by_frequency(prefix.sets, k)
            q.stats = self._make_stats(prefix)
        return FrequentMatchResult(
            ids=chosen,
            frequencies=frequencies,
            k=k,
            n_range=(n0, n1),
            answer_sets=prefix.sets if keep_answer_sets else None,
            stats=q.stats,
        )

    # ------------------------------------------------------------------
    def _make_stats(self, prefix: "PopPrefix") -> SearchStats:
        return SearchStats(
            attributes_retrieved=prefix.attributes_retrieved,
            total_attributes=self._columns.total_attributes,
            heap_pops=prefix.heap_pops,
            # one binary search per dimension to locate the query
            binary_search_probes=self._columns.dimensionality,
        )


# ----------------------------------------------------------------------
# the pop-prefix kernel
# ----------------------------------------------------------------------
class PopPrefix(NamedTuple):
    """What the frontier's pop loop produces, and what it costs."""

    #: ``sets[n]``: ids in the order they complete ``n`` appearances —
    #: the first ``k``, or every id the loop completes (``full``)
    sets: Dict[int, List[int]]
    #: completing difference of each of the first ``k`` ids of ``sets[n1]``
    differences: List[float]
    heap_pops: int
    attributes_retrieved: int


def pop_prefix(
    columns: SortedColumns,
    query: np.ndarray,
    splits: np.ndarray,
    k: int,
    n0: int,
    n1: int,
    full: bool = False,
) -> PopPrefix:
    """The frontier's pop prefix up to the k-th id reaching ``n1``.

    A point completes ``n`` appearances at the pop of its *n-th key*:
    the n-th smallest ``(difference, slot, walk position)`` among its
    attributes (module docstring).  So ``sets[n]`` is the points sorted
    by n-th key, the loop stops at ``stop``, the k-th smallest n1-th
    key, and each slot has popped exactly its attributes keyed at most
    ``stop``.  ``splits`` are the query's split positions.
    """
    c = columns.cardinality
    data, values, ids = columns.data, columns.values_matrix, columns.ids_matrix
    growth = grow_windows(columns, query, k, n0, n1)
    mask = candidate_mask(growth)
    ranked = _rank(data, query, np.flatnonzero(mask), n0, n1)
    # A round's window is [q - eps, q + eps] in rounded bounds, while
    # the cursor compares its own rounded |value - q|: when the exact
    # window of tau_n (the k-th smallest n-th difference) pokes out of
    # the window its candidates came from, take every point inside the
    # exact window instead.
    widest: Dict[float, float] = {}
    for n, (eps, _) in growth.first.items():
        widest[eps] = max(widest.get(eps, 0.0), ranked[n][1][k - 1])
    if not all(
        _window_covers(values, splits, query, eps, t)
        for eps, t in widest.items()
    ):
        down, up = _walk_lengths(values, splits, query, max(widest.values()))
        mask |= _hits(ids, splits - down, splits + up, c) >= n0
        ranked = _rank(data, query, np.flatnonzero(mask), n0, n1)

    stop = tuple(column[k - 1] for column in ranked[n1])
    pops = _slot_pops(values, ids, splits, query, stop)
    lengths = np.empty_like(pops)
    lengths[0::2] = splits
    lengths[1::2] = c - splits
    differences = ranked[n1][1][:k].tolist()
    if full:
        appear = _hits(ids, splits - pops[0::2], splits + pops[1::2], c)
        ranked = _rank(data, query, np.flatnonzero(appear >= n0), n0, n1)
        sets = {
            n: ranked[n][0][appear[ranked[n][0]] >= n].tolist()
            for n in range(n0, n1 + 1)
        }
    else:
        sets = {n: ranked[n][0][:k].tolist() for n in range(n0, n1 + 1)}
    return PopPrefix(
        sets=sets,
        differences=differences,
        heap_pops=int(pops.sum()),
        attributes_retrieved=int(np.minimum(pops + 1, lengths).sum()),
    )


def _rank(
    data: np.ndarray, query: np.ndarray, points: np.ndarray, n0: int, n1: int
) -> Dict[int, Tuple[np.ndarray, ...]]:
    """Per n, ``points`` sorted by n-th key, as ``(ids, difs, slots, values)``.

    A stable sort of a row's differences orders its attributes by
    (difference, dimension), which is (difference, slot).  Keys that
    share a slot and a difference follow the walk: up by (value, id),
    down by (-value, -id), since equal values sit in ascending id order.
    """
    dif = np.abs(data[points] - query)
    order = np.argsort(dif, axis=1, kind="stable")
    rows = np.arange(points.shape[0])
    ranked = {}
    for n in range(n0, n1 + 1):
        dims = order[:, n - 1]
        nth = dif[rows, dims]
        value = data[points, dims]
        up = value >= query[dims]
        slot = 2 * dims + up
        sign = np.where(up, 1, -1)
        seq = np.lexsort((sign * points, sign * value, slot, nth))
        ranked[n] = (points[seq], nth[seq], slot[seq], value[seq])
    return ranked


def _walk_lengths(
    values: np.ndarray, splits: np.ndarray, query: np.ndarray, t: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per dimension, how many attributes the down and the up walk meet
    with ``|value - q_j| <= t``, before the first one above ``t``."""
    d, c = values.shape
    lo = np.empty(d, dtype=np.int64)
    hi = np.empty(d, dtype=np.int64)
    lows = query - t
    highs = query + t
    for j in range(d):
        lo[j] = values[j].searchsorted(lows[j], side="left")
        hi[j] = values[j].searchsorted(highs[j], side="right")
    lo = np.minimum(lo, splits)
    hi = np.maximum(hi, splits)
    # q_j -/+ t is rounded: settle each end on |value - q_j| itself.
    rows = np.arange(d)

    def within(position):
        at = values[rows, np.clip(position, 0, c - 1)]
        return np.abs(at - query) <= t

    unsettled = (
        ((lo > 0) & within(lo - 1))
        | ((lo < splits) & ~within(lo))
        | ((hi < c) & within(hi))
        | ((hi > splits) & ~within(hi - 1))
    )
    for j in np.flatnonzero(unsettled):
        lo[j], hi[j] = _settle(
            values[j], int(splits[j]), query[j], t, lo[j], hi[j]
        )
    return splits - lo, hi - splits


def _settle(column, split, q, t, lo, hi):
    """Move ``lo``/``hi`` over whole equal-value runs until exact."""
    while lo > 0 and abs(column[lo - 1] - q) <= t:
        lo = np.searchsorted(column, column[lo - 1], side="left")
    while lo < split and abs(column[lo] - q) > t:
        lo = np.searchsorted(column, column[lo], side="right")
    while hi < column.shape[0] and abs(column[hi] - q) <= t:
        hi = np.searchsorted(column, column[hi], side="right")
    while hi > split and abs(column[hi - 1] - q) > t:
        hi = np.searchsorted(column, column[hi - 1], side="left")
    return lo, hi


def _window_covers(
    values: np.ndarray,
    splits: np.ndarray,
    query: np.ndarray,
    eps: float,
    t: float,
) -> bool:
    """True if every attribute with ``|value - q_j| <= t`` lies in the
    round window ``[q_j - eps, q_j + eps]``."""
    d, c = values.shape
    down, up = _walk_lengths(values, splits, query, t)
    rows = np.arange(d)
    lowest = values[rows, np.clip(splits - down, 0, c - 1)]
    highest = values[rows, np.clip(splits + up - 1, 0, c - 1)]
    return bool(
        np.all(
            ((down == 0) | (lowest >= query - eps))
            & ((up == 0) | (highest <= query + eps))
        )
    )


def _hits(
    ids: np.ndarray, lo: np.ndarray, hi: np.ndarray, c: int
) -> np.ndarray:
    """Per-point count of sorted positions ``[lo_j, hi_j)`` over dimensions."""
    counts = np.zeros(c, dtype=np.int64)
    for j in range(ids.shape[0]):
        np.add.at(counts, ids[j, lo[j]:hi[j]], 1)
    return counts


def _slot_pops(
    values: np.ndarray,
    ids: np.ndarray,
    splits: np.ndarray,
    query: np.ndarray,
    stop: Tuple,
) -> np.ndarray:
    """Pops per slot once the key ``stop`` has been popped.

    Slots before ``stop``'s pop every attribute up to its difference,
    slots after it only those strictly below; ``stop``'s own slot pops
    up to its walk position.
    """
    pid, dif, slot, value = stop
    d = values.shape[0]
    through = np.stack(_walk_lengths(values, splits, query, dif), axis=1)
    below = np.stack(
        _walk_lengths(values, splits, query, np.nextafter(dif, -np.inf)), axis=1
    )
    # (d, 2) rows flatten to slot order 2j (down), 2j + 1 (up)
    pops = np.where(np.arange(2 * d) < slot, through.ravel(), below.ravel())
    j = slot // 2
    lo = np.searchsorted(values[j], value, side="left")
    hi = np.searchsorted(values[j], value, side="right")
    position = lo + np.searchsorted(ids[j, lo:hi], pid)
    pops[slot] = position - splits[j] + 1 if slot % 2 else splits[j] - position
    return pops
