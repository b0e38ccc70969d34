"""Block-AD: a vectorised variant of the AD algorithm.

The reference :class:`~repro.core.ad.ADEngine` reproduces the paper's
Fig. 4/6 heap, one attribute per pop — provably optimal in attributes
retrieved — by computing the heap's pop prefix with numpy on top of the
window growth below (:func:`grow_windows`), so its answers and counters
stay the heap loop's.  ``BlockADEngine`` trades a *bounded* amount of
extra attribute retrieval for a cheaper finish:

1. Grow a symmetric difference threshold ``eps`` (exponentially) and, per
   dimension, take the whole window of attributes within ``eps`` of the
   query with two binary searches.
2. A point's n-match difference is ``<= eps`` iff it occurs in at least
   ``n`` of the windows (one ``np.bincount`` over the concatenated window
   ids), so stop growing once at least ``k`` points occur ``n1`` times.
3. Refine: fetch the full rows of the points occurring at least ``n0``
   times — every possible member of any answer set for ``n in [n0, n1]``
   has an n-match difference at most the k-th smallest n1-match
   difference, hence at least ``n0`` window hits — and compute their
   exact match profiles to build the per-n answer sets.

The answer is identical to the reference engine (same deterministic
tie-breaking as the naive oracle); only the access pattern differs.  The
windows consumed at the final ``eps`` are at most one doubling beyond what
strict AD would have consumed, so ``attributes_retrieved`` stays within a
small constant factor of optimal.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..obs.observer import Observed
from ..obs.spans import NULL_SPANS
from ..sorted_lists import SortedColumns
from . import validation
from .types import FrequentMatchResult, MatchResult, SearchStats, rank_by_frequency

__all__ = ["BlockADEngine"]

#: bounds on the adaptive growth multiplier applied between rounds
MIN_GROWTH = 1.25
MAX_GROWTH = 4.0


class BlockADEngine(Observed):
    """Vectorised epsilon-stepping AD search (see module docstring)."""

    name = "block-ad"

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
    def k_n_match(self, query, k: int, n: int) -> MatchResult:
        """k-n-match via windows + exact refinement of the candidates."""
        c, d = self._columns.cardinality, self._columns.dimensionality
        query, k, n = validation.validate_match_args(query, k, n, c, d)
        with self._observe("k_n_match", d, k=k, n=n) as q:
            result = self._frequent_impl(query, k, n, n, keep_answer_sets=True)
            with q.spans.span("finalize"):
                ids = result.answer_sets[n]
                data = self._columns.data
                differences = [
                    float(np.partition(np.abs(data[pid] - query), n - 1)[n - 1])
                    for pid in ids
                ]
            q.stats = result.stats
        return MatchResult(
            ids=list(ids), differences=differences, k=k, n=n, stats=result.stats
        )

    def frequent_k_n_match(
        self,
        query,
        k: int,
        n_range: Tuple[int, int],
        keep_answer_sets: bool = True,
    ) -> FrequentMatchResult:
        """Frequent k-n-match with answer sets identical to the oracle."""
        c, d = self._columns.cardinality, self._columns.dimensionality
        query, k, (n0, n1) = validation.validate_frequent_args(
            query, k, n_range, c, d
        )
        with self._observe("frequent_k_n_match", d, k=k, n0=n0, n1=n1) as q:
            result = self._frequent_impl(
                query, k, n0, n1, keep_answer_sets=keep_answer_sets
            )
            q.stats = result.stats
        return result

    def _frequent_impl(
        self,
        query: np.ndarray,
        k: int,
        n0: int,
        n1: int,
        keep_answer_sets: bool,
    ) -> FrequentMatchResult:
        """The window-growth + refinement body (arguments pre-validated)."""
        c, d = self._columns.cardinality, self._columns.dimensionality
        spans = self._spans or NULL_SPANS
        with spans.span("window_grow"):
            growth = grow_windows(self._columns, query, k, n0, n1, spans)
            spans.annotate(
                rounds=growth.rounds,
                window_attributes=int(growth.attributes),
            )

        # Candidate set: every point that can belong to the k-n-match set
        # of some n in [n0, n1] (see candidate_mask).
        with spans.span("refine"):
            candidates, profiles = self._refine(query, growth)
            spans.annotate(candidates=int(candidates.shape[0]))

        with spans.span("rank"):
            answer_sets = self._answer_sets(candidates, profiles, k, n0, n1)
            chosen, frequencies = rank_by_frequency(answer_sets, k)
        stats = SearchStats(
            attributes_retrieved=int(
                growth.attributes + candidates.shape[0] * d
            ),
            total_attributes=c * d,
            binary_search_probes=int(growth.probes),
            candidates_refined=int(candidates.shape[0]),
        )
        return FrequentMatchResult(
            ids=chosen,
            frequencies=frequencies,
            k=k,
            n_range=(n0, n1),
            answer_sets=answer_sets if keep_answer_sets else None,
            stats=stats,
        )

    def _refine(
        self, query: np.ndarray, growth: WindowGrowth
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ids and their sorted exact difference profiles."""
        candidates = np.flatnonzero(candidate_mask(growth))
        data = self._columns.data
        profiles = np.sort(np.abs(data[candidates] - query), axis=1)
        return candidates, profiles

    @staticmethod
    def _answer_sets(
        candidates: np.ndarray,
        profiles: np.ndarray,
        k: int,
        n0: int,
        n1: int,
    ) -> Dict[int, List[int]]:
        """Per-n answer sets from the refined profiles (oracle order)."""
        answer_sets: Dict[int, List[int]] = {}
        for n in range(n0, n1 + 1):
            column = profiles[:, n - 1]
            order = np.lexsort((candidates, column))
            answer_sets[n] = [int(candidates[i]) for i in order[:k]]
        return answer_sets


# ----------------------------------------------------------------------
# window growth, shared with the AD engine's pop-prefix kernel
# ----------------------------------------------------------------------
class WindowGrowth(NamedTuple):
    """What :func:`grow_windows` found, round by round."""

    #: per n in ``[n0, n1]``: ``(eps, counts)`` of the earliest round at
    #: which >= k points matched in >= n windows
    first: Dict[int, Tuple[float, np.ndarray]]
    rounds: int
    #: attributes inside the final round's windows
    attributes: int
    probes: int


def grow_windows(
    columns: SortedColumns,
    query: np.ndarray,
    k: int,
    n0: int,
    n1: int,
    spans: Optional[object] = None,
) -> WindowGrowth:
    """Grow ``eps`` until >= k points match in >= n1 windows.

    A round's window in dimension ``j`` is every attribute in
    ``[q_j - eps, q_j + eps]`` (two binary searches), and its counts
    are each point's number of windows.  Only the rounds some n in
    ``[n0, n1]`` first becomes sufficient at are kept (see
    :func:`candidate_mask`), so memory does not grow with the round
    count.
    """
    c, d = columns.cardinality, columns.dimensionality
    spans = spans or NULL_SPANS
    # Hoist the per-dimension sorted arrays once per query: the views
    # are immutable for the lifetime of the build, and re-fetching
    # them every epsilon round is measurable on high-round queries.
    values = [columns.column_values(j) for j in range(d)]
    ids = [columns.column_ids(j) for j in range(d)]
    eps = _initial_epsilon(columns, query, k, n1, values)
    probes = d  # the locate_all pass inside _initial_epsilon
    first: Dict[int, Tuple[float, np.ndarray]] = {}
    rounds = 0
    while True:
        probes += 2 * d
        rounds += 1
        with spans.span("round", eps=float(eps)):
            counts, attributes = _window_counts(c, query, eps, values, ids)
            spans.annotate(window_attributes=int(attributes))
        # Sufficiency is monotone in both eps and n: stop at the first
        # n still short of k points.
        for n in range(n0 + len(first), n1 + 1):
            if int(np.count_nonzero(counts >= n)) < k:
                break
            first[n] = (eps, counts)
        satisfied = int(np.count_nonzero(counts >= n1))
        if satisfied >= k or attributes >= c * d:
            # A whole-database round has every count at d, so it too has
            # recorded every n (k <= c).
            return WindowGrowth(first, rounds, attributes, probes)
        if eps <= 0:
            eps = smallest_positive(query, values)
            continue
        # Adaptive growth: the count of points matching in >= n1
        # dimensions scales roughly like eps^n1 locally, so the
        # deficit k/satisfied suggests the factor still needed.
        # Clamping keeps both round count and overshoot bounded.
        needed = (k / max(satisfied, 0.5)) ** (1.0 / n1)
        eps *= min(MAX_GROWTH, max(MIN_GROWTH, needed))


def candidate_mask(growth: WindowGrowth) -> np.ndarray:
    """Every point that can belong to the k-n-match set of some n.

    A k-n-match member's n-match difference is at most the k-th
    smallest n-match difference, which is at most the smallest tried
    eps at which k points matched in >= n windows — so it must itself
    match in >= n windows at that eps.  Using the earliest sufficient
    round per n keeps the candidate set tight for small n, where the
    final (largest) eps would admit nearly everything.
    """
    return np.logical_or.reduce(
        [counts >= n for n, (_, counts) in growth.first.items()]
    )


def _window_counts(
    c: int,
    query: np.ndarray,
    eps: float,
    values: List[np.ndarray],
    ids: List[np.ndarray],
) -> Tuple[np.ndarray, int]:
    """Per-point count of dimensions within ``eps`` (inclusive).

    ``values``/``ids`` are the hoisted per-dimension arrays; the
    ``attributes`` accounting (window sizes at this ``eps``) is
    unchanged by the hoist.
    """
    counts = np.zeros(c, dtype=np.int64)
    attributes = 0
    lows = query - eps
    highs = query + eps
    for j in range(len(values)):
        # the ndarray method skips np.searchsorted's dispatch overhead
        lo = values[j].searchsorted(lows[j], side="left")
        hi = values[j].searchsorted(highs[j], side="right")
        if hi > lo:
            np.add.at(counts, ids[j][lo:hi], 1)
            attributes += int(hi - lo)
    return counts, attributes


def _initial_epsilon(
    columns: SortedColumns,
    query: np.ndarray,
    k: int,
    n1: int,
    values: List[np.ndarray],
) -> float:
    """A cheap starting threshold.

    Looks at the ``m``-th closest attribute per dimension where
    ``m * d`` roughly covers the ``k * n1`` window hits a successful
    round needs, and starts from the *smallest* such per-dimension
    difference so the first round under-shoots rather than
    over-shoots.
    """
    c, d = columns.cardinality, columns.dimensionality
    m = min(c, max(1, -(-k * n1 // d)))  # ceil(k*n1/d)
    splits = columns.locate_all(query)
    best = np.inf
    for j in range(d):
        lo = max(0, splits[j] - m)
        hi = min(c, splits[j] + m)
        window = np.abs(values[j][lo:hi] - query[j])
        if window.size >= m:
            candidate = float(np.partition(window, m - 1)[m - 1])
        elif window.size:
            candidate = float(window.max())
        else:  # pragma: no cover - c >= 1 makes windows non-empty
            candidate = 0.0
        best = min(best, candidate)
    if np.isfinite(best) and best > 0:
        return best
    return smallest_positive(query, values)


def smallest_positive(query: np.ndarray, values: List[np.ndarray]) -> float:
    """Fallback threshold when every nearest difference is zero."""
    smallest = np.inf
    for j in range(len(values)):
        deltas = np.abs(values[j] - query[j])
        positive = deltas[deltas > 0]
        if positive.size:
            smallest = min(smallest, float(positive.min()))
    if not np.isfinite(smallest):
        # Entire database equals the query in every dimension.
        return 1.0
    return smallest
