"""Vectorised multi-query Block-AD: one numpy pass per round, whole batch.

:class:`~repro.core.ad_block.BlockADEngine` already replaces the
attribute-at-a-time heap walk with epsilon windows, but it still runs one
query at a time: every epsilon round costs ``2d`` `searchsorted` calls,
``d`` scatter-adds and a handful of ``O(c)`` reductions *per query*, and
every round re-adds the whole window from scratch.  For a batch of ``q``
queries that interpreter overhead multiplies by ``q`` even though all
queries bisect the same ``d`` sorted columns.

:class:`BatchBlockADEngine` grows the per-query epsilons in **lock-step**
and shares the column passes across the batch:

1. Per round, per dimension, one ``searchsorted`` locates the window
   bounds of *all* active queries at once (a ``(q, d)`` bound matrix).
2. Because each query's epsilon only grows, its windows nest round over
   round — so only the **delta** (the newly admitted ends of each window)
   is scattered into the per-query count matrix.  Across a whole query
   this retrieves each window attribute once instead of once per round.
3. Per-query early-exit masks drop finished queries from the lock-step
   round so a straggler query never forces work for the rest.

Answers are **bit-identical** to the serial engines: the epsilon schedule
(initial threshold, adaptive growth factor, stop rule) reproduces
``BlockADEngine`` exactly, the candidate sets are therefore the same, and
the final exact refinement (sorted difference profiles + the shared
deterministic ``lexsort``/:func:`rank_by_frequency` tie-breaking) is the
same code path.  Even if the schedule ever diverged, correctness would
not: the refinement recomputes exact n-match differences for a candidate
superset, so the windows only decide *how much* work is done, never
*which* answers come back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core import validation
from ..core.ad_block import (
    MAX_GROWTH,
    MIN_GROWTH,
    BlockADEngine,
    smallest_positive,
)
from ..core.types import (
    FrequentMatchResult,
    MatchResult,
    SearchStats,
    rank_by_frequency,
)
from ..obs.observer import Observed
from ..obs.spans import NULL_SPANS
from ..sorted_lists import SortedColumns

__all__ = ["BatchBlockADEngine"]


class BatchBlockADEngine(Observed):
    """Lock-step vectorised Block-AD over a whole query batch."""

    name = "batch-block-ad"

    #: default lock-step group size.  Each in-flight query owns a
    #: ``c``-element count row that the scatter and threshold passes
    #: sweep every round, so the group working set is ``chunk * 8c``
    #: bytes; past the last-level cache the rows thrash and the scatter
    #: slows ~2x.  32 rows balances that against amortising each
    #: round's column bisections over more queries (measured optimum on
    #: a 50k x 32 database; 16 is within a few percent).
    DEFAULT_CHUNK = 32

    def __init__(
        self,
        data: Union[np.ndarray, SortedColumns],
        chunk_size: Union[int, None] = None,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> None:
        if isinstance(data, SortedColumns):
            self._columns = data
        else:
            self._columns = SortedColumns(data)
        # Serial engine for single-query calls and the rare zero-epsilon
        # fallback; shares the same build.  It keeps metrics=None: the
        # batch engine records its own events (including for delegated
        # single-query calls) so nothing is double-counted.  Spans *are*
        # shared: delegated single-query calls trace as the serial
        # engine's phases, which is what they run.
        self._serial = BlockADEngine(self._columns, spans=spans)
        self._metrics = metrics
        self._spans = spans
        # (d, c) view shared by every batch round's bound searches.
        self._values_matrix = self._columns.values_matrix
        # Narrow id copy: point ids fit int32, and the delta scatters are
        # memory-bound, so halving the id width measurably helps.  One
        # extra 4*c*d-byte array per engine, built once.  Kept as a list
        # of per-dimension rows: 1-D slicing is the hot path.
        self._ids_narrow = self._columns.ids_matrix.astype(np.int32)
        self._ids_rows = list(self._ids_narrow)
        if chunk_size is None:
            chunk_size = self.DEFAULT_CHUNK
        elif chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1; got {chunk_size}")
        self._chunk_size = int(chunk_size)

    # ------------------------------------------------------------------
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

    @Observed.spans.setter
    def spans(self, collector) -> None:
        self._spans = collector
        self._serial.spans = collector

    # ------------------------------------------------------------------
    # single-query API (delegates to the serial engine, same answers)
    # ------------------------------------------------------------------
    def k_n_match(self, query, k: int, n: int) -> MatchResult:
        with self._meter("k_n_match", self.dimensionality) as q:
            result = self._serial.k_n_match(query, k, n)
            q.stats = result.stats
        return result

    def frequent_k_n_match(
        self, query, k: int, n_range: Tuple[int, int], keep_answer_sets: bool = True
    ) -> FrequentMatchResult:
        with self._meter("frequent_k_n_match", self.dimensionality) as q:
            result = self._serial.frequent_k_n_match(
                query, k, n_range, keep_answer_sets=keep_answer_sets
            )
            q.stats = result.stats
        return result

    # ------------------------------------------------------------------
    # batch API
    # ------------------------------------------------------------------
    def k_n_match_batch(self, queries, k: int, n: int) -> List[MatchResult]:
        """One k-n-match per row of ``queries`` in one lock-step run."""
        c, d = self.cardinality, self.dimensionality
        queries, k, n = validation.validate_batch_match_args(
            queries, k, n, c, d
        )
        data = self._columns.data
        results: List[MatchResult] = []
        with self._observe(
            "k_n_match_batch", d, batch=int(queries.shape[0]), k=k, n=n,
        ) as q:
            frequents = self._frequent_batch_impl(
                queries, k, n, n, keep_answer_sets=True
            )
            for query, freq in zip(queries, frequents):
                ids = freq.answer_sets[n]
                differences = [
                    float(np.partition(np.abs(data[pid] - query), n - 1)[n - 1])
                    for pid in ids
                ]
                results.append(
                    MatchResult(
                        ids=list(ids),
                        differences=differences,
                        k=freq.k,
                        n=n,
                        stats=freq.stats,
                    )
                )
            q.batch_stats = [result.stats for result in results]
        return results

    def frequent_k_n_match_batch(
        self,
        queries,
        k: int,
        n_range: Tuple[int, int],
        keep_answer_sets: bool = False,
    ) -> List[FrequentMatchResult]:
        """One frequent k-n-match per row of ``queries``, lock-step."""
        c, d = self.cardinality, self.dimensionality
        queries, k, (n0, n1) = validation.validate_batch_frequent_args(
            queries, k, n_range, c, d
        )
        with self._observe(
            "frequent_k_n_match_batch", d,
            batch=int(queries.shape[0]), k=k, n0=n0, n1=n1,
        ) as q:
            results = self._frequent_batch_impl(
                queries, k, n0, n1, keep_answer_sets=keep_answer_sets
            )
            # Lock-step rows have no latency of their own: each query is
            # charged the batch mean (docs/observability.md); its cost
            # counters are its own, so totals stay exact.
            q.batch_stats = [result.stats for result in results]
        return results

    def _frequent_batch_impl(
        self,
        queries: np.ndarray,
        k: int,
        n0: int,
        n1: int,
        keep_answer_sets: bool,
    ) -> List[FrequentMatchResult]:
        """The lock-step batch body (arguments pre-validated)."""
        a = queries.shape[0]
        if a == 0:
            return []
        if a > self._chunk_size:
            # Queries are independent (each has its own epsilon
            # schedule), so grouping only bounds the cache working set —
            # the per-query answers and stats are unaffected.
            results: List[FrequentMatchResult] = []
            for start in range(0, a, self._chunk_size):
                results.extend(
                    self._frequent_batch_impl(
                        queries[start : start + self._chunk_size],
                        k,
                        n0,
                        n1,
                        keep_answer_sets=keep_answer_sets,
                    )
                )
            return results

        spans = self._spans or NULL_SPANS
        with spans.span("lockstep", queries=a):
            masks, final_attrs, rounds = self._grow_windows_batch(
                queries, k, n0, n1
            )
            spans.annotate(rounds=int(max(rounds)))
        with spans.span("finalize"):
            return self._finalize_batch(
                queries, k, n0, n1, keep_answer_sets, masks, final_attrs,
                rounds,
            )

    def _finalize_batch(
        self,
        queries: np.ndarray,
        k: int,
        n0: int,
        n1: int,
        keep_answer_sets: bool,
        masks: np.ndarray,
        final_attrs,
        rounds,
    ) -> List[FrequentMatchResult]:
        """Exact refinement + result assembly after the lock-step rounds."""
        c, d = self.cardinality, self.dimensionality
        a = queries.shape[0]
        data = self._columns.data
        results: List[FrequentMatchResult] = []
        for i in range(a):
            # Exact refinement — verbatim the serial engine's code path so
            # tie-breaking (lexsort on (id, difference)) is bit-identical.
            candidates = np.flatnonzero(masks[i])
            profiles = np.sort(np.abs(data[candidates] - queries[i]), axis=1)
            answer_sets: Dict[int, List[int]] = {}
            for n in range(n0, n1 + 1):
                column = profiles[:, n - 1]
                order = np.lexsort((candidates, column))
                answer_sets[n] = [int(candidates[pos]) for pos in order[:k]]
            chosen, frequencies = rank_by_frequency(answer_sets, k)
            stats = SearchStats(
                attributes_retrieved=int(final_attrs[i] + candidates.shape[0] * d),
                total_attributes=c * d,
                binary_search_probes=int(d + 2 * d * rounds[i]),
                candidates_refined=int(candidates.shape[0]),
            )
            results.append(
                FrequentMatchResult(
                    ids=chosen,
                    frequencies=frequencies,
                    k=k,
                    n_range=(n0, n1),
                    answer_sets=answer_sets if keep_answer_sets else None,
                    stats=stats,
                )
            )
        return results

    # ------------------------------------------------------------------
    # lock-step epsilon growth
    # ------------------------------------------------------------------
    def _grow_windows_batch(
        self, queries: np.ndarray, k: int, n0: int, n1: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grow every query's epsilon until its ``n1`` level is satisfied.

        Returns ``(candidate masks (a, c) bool, attributes consumed at
        each query's final eps (a,), rounds per query (a,))``.  The mask
        of query ``i`` is exactly the union, over ``n in [n0, n1]``, of
        ``counts >= n`` at the *earliest* round where at least ``k``
        points reached ``n`` window hits — the same set the serial
        engine derives from its round history.
        """
        c, d = self.cardinality, self.dimensionality
        a = queries.shape[0]
        vals = self._values_matrix
        # One row list per delta side, matching the interleaved (2d,)
        # start/stop layout built each round.
        ids_twice = self._ids_rows + self._ids_rows

        # Per-query state, indexed by original query position.  The
        # count rows are int32 *and* the scatter addend is np.int32(1):
        # ``ufunc.at`` only has a no-cast fast path when the accumulator
        # and operand dtypes match (a python-int 1 against a narrow row
        # measures ~30x slower), and the narrow rows halve the working
        # set the scatter and threshold passes sweep every round.
        one = np.int32(1)
        eps = [float(e) for e in self._initial_epsilons(queries, k, n1)]
        counts = [np.zeros(c, dtype=np.int32) for _ in range(a)]
        # level[i]: the smallest n level not yet satisfied for query i;
        # monotone because, within one round, "k points reached >= n
        # window hits" can only get harder as n grows.
        level = [n0] * a
        masks = np.zeros((a, c), dtype=bool)
        final_attrs = [0] * a
        rounds = [0] * a

        # Lock-step state, compacted to the still-active queries so a
        # straggler query never forces O(batch) work for the rest.
        active: List[int] = list(range(a))
        q_act = queries
        old_lo = old_hi = None  # (len(active), d) bound matrices

        while active:
            na = len(active)
            eps_vec = np.array([eps[gi] for gi in active])
            new_lo = np.empty((na, d), dtype=np.int64)
            new_hi = np.empty((na, d), dtype=np.int64)
            # One bisection pass per dimension serves the whole batch.
            for j in range(d):
                new_lo[:, j] = np.searchsorted(
                    vals[j], q_act[:, j] - eps_vec, side="left"
                )
                new_hi[:, j] = np.searchsorted(
                    vals[j], q_act[:, j] + eps_vec, side="right"
                )
            if old_lo is None:
                # First round: the whole window is the delta.
                old_lo = new_lo
                old_hi = new_lo
            attrs_now = (new_hi - new_lo).sum(axis=1).tolist()
            # Delta ranges, interleaved (2d,) per query: the left deltas
            # [new_lo, old_lo) then the right deltas [old_hi, new_hi).
            starts = np.concatenate([new_lo, old_hi], axis=1).tolist()
            stops = np.concatenate([old_lo, new_hi], axis=1).tolist()

            still: List[int] = []
            for pos in range(na):
                gi = active[pos]
                row = counts[gi]
                # Windows nest (eps only grows), so scatter only the
                # deltas (the newly admitted window ends).  Across a
                # whole query this touches each window attribute once
                # instead of once per round, and the per-query count row
                # stays cache-resident for the scatter.
                pieces = [
                    idr[s:t]
                    for idr, s, t in zip(ids_twice, starts[pos], stops[pos])
                    if t > s
                ]
                if pieces:
                    delta = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
                    np.add.at(row, delta, one)
                rounds[gi] += 1
                final_attrs[gi] = attrs_now[pos]

                # Advance the n pointer while its level is satisfied;
                # OR-ing the mask at the first newly satisfied level
                # reproduces the serial engine's "earliest sufficient
                # round per n" scan (that level's count set contains
                # every higher level's).
                lev = first = level[gi]
                sat = int(np.count_nonzero(row >= lev)) if lev <= n1 else 0
                while lev <= n1 and sat >= k:
                    lev += 1
                    if lev <= n1:
                        sat = int(np.count_nonzero(row >= lev))
                if lev > first:
                    masks[gi] |= row >= first
                level[gi] = lev

                if lev > n1:
                    continue  # satisfied through n1 -> query finished
                if attrs_now[pos] >= c * d:
                    # Defensive, like the serial engine: whole database
                    # consumed yet some level never reached k matches.
                    masks[gi] = True
                    continue
                # Adaptive growth, identical to the serial engine: the
                # count of points matching in >= n1 dimensions scales
                # roughly like eps^n1 locally, so the deficit suggests
                # the factor still needed.
                sat_n1 = sat if lev == n1 else int(np.count_nonzero(row >= n1))
                needed = (k / max(sat_n1, 0.5)) ** (1.0 / n1)
                eps[gi] = eps[gi] * min(
                    MAX_GROWTH, max(MIN_GROWTH, needed)
                )
                still.append(pos)

            if len(still) != na:
                active = [active[pos] for pos in still]
                q_act = q_act[still]
                old_lo = new_lo[still]
                old_hi = new_hi[still]
            else:
                old_lo, old_hi = new_lo, new_hi

        return masks, final_attrs, rounds

    def _initial_epsilons(self, queries: np.ndarray, k: int, n1: int) -> np.ndarray:
        """Block-AD's initial epsilon, vectorised over a batch.

        Per dimension, gathers the ``2m`` attributes around every query's
        split position (inf-padded at the array edges) and takes the
        ``m``-th smallest per-dimension difference; the batch starting
        threshold is the per-query minimum over dimensions — the same
        under-shooting start as the serial engine.
        """
        c, d = self.cardinality, self.dimensionality
        a = queries.shape[0]
        m = min(c, max(1, -(-k * n1 // d)))  # ceil(k*n1/d)
        vals = self._values_matrix
        splits = np.empty((a, d), dtype=np.int64)
        for j in range(d):
            splits[:, j] = np.searchsorted(vals[j], queries[:, j], side="left")
        offsets = np.arange(2 * m, dtype=np.int64)[None, :]
        best = np.full(a, np.inf)
        for j in range(d):
            lo = np.maximum(0, splits[:, j] - m)
            hi = np.minimum(c, splits[:, j] + m)
            pos = lo[:, None] + offsets  # (a, 2m)
            valid = pos < hi[:, None]
            window = np.abs(
                vals[j][np.minimum(pos, c - 1)] - queries[:, j][:, None]
            )
            window[~valid] = np.inf
            # Window sizes are always >= m (m <= c), so the m-th smallest
            # over the inf-padded rows equals the serial per-window value.
            best = np.minimum(best, np.partition(window, m - 1, axis=1)[:, m - 1])
        eps = best.copy()
        fallback = ~np.isfinite(best) | (best <= 0)
        if fallback.any():
            values = [self._columns.column_values(j) for j in range(d)]
            for i in np.flatnonzero(fallback):
                eps[i] = smallest_positive(queries[i], values)
        return eps
