"""Exact cross-partition merging of k-n-match answers.

Every facade that splits its points into parts — shards, LSM segments
plus a memtable, the dynamic store's base plus buffer — answers a query
the same way: each part returns its local candidates, and this module
turns them into the exact global answer.  Parts partition the *live*
point set (every live point lives in exactly one part), so per-part
answers merge into the exact global answer: any point in the global
k-n-match set has one of the ``k`` smallest n-match differences
overall, hence one of the ``min(k, |part|)`` smallest within its own
part — the per-part top-k lists together always contain the global
top-k.  The merge uses the library's canonical deterministic tie-break
(ascending n-match difference, then ascending global point id — the
naive oracle's order), so merged answers are bit-identical to a single
unpartitioned engine.

The same argument applies per ``n`` value of a frequent k-n-match query:
merge each per-``n`` answer set across parts *first*, then count
frequencies over the merged sets — Definition 4 counts appearances in
answer sets of size exactly ``k``, so frequency counting must happen
after the per-``n`` merge, never before (per-part frequencies are
meaningless globally).  See ``docs/sharding.md`` for the worked
exactness argument.

The pipeline is three steps, each written once:

1. :func:`answer_set_differences` — one part's answer sets (local row
   indexes per ``n``) become per-``n`` arrays of global ids and exact
   n-match differences, tombstoned ids dropped;
2. :func:`merge_top_k` — per ``n``, the canonical top-``k`` of the
   concatenated part arrays;
3. :func:`merge_parts` — the per-``n`` merge, the frequency count for
   frequent queries, and the stats roll-up: start from the live
   ``cardinality * d`` attribute count and :meth:`SearchStats.merge` in
   every part's stats.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .types import FrequentMatchResult, MatchResult, SearchStats, rank_by_frequency

__all__ = ["answer_set_differences", "merge_top_k", "merge_parts", "PartAnswers"]

#: One part's candidates: ``n -> (global ids, n-match differences)``.
PartAnswers = Dict[int, Tuple[np.ndarray, np.ndarray]]


def answer_set_differences(
    rows: np.ndarray,
    query: np.ndarray,
    answer_sets: Dict[int, Sequence[int]],
    ids: Optional[np.ndarray] = None,
    tombstones: Optional[set] = None,
) -> PartAnswers:
    """Per-``n`` global ids and exact n-match differences of one part.

    ``answer_sets`` maps each ``n`` to row indexes into ``rows`` (the
    part's own data); ``ids`` maps those rows to global ids (``None``
    keeps them as they are) and ids in ``tombstones`` are dropped.
    Differences are the ``n-1``-th order statistic of
    ``|rows[i] - query|`` in float64 — the value every serial engine
    reports, bit for bit — so merged orderings match an unpartitioned
    engine exactly.
    """
    answers: PartAnswers = {}
    for n, local in answer_sets.items():
        local = np.asarray(local, dtype=np.int64)
        global_ids = local if ids is None else ids[local]
        if tombstones:
            keep = [pid not in tombstones for pid in global_ids.tolist()]
            local, global_ids = local[keep], global_ids[keep]
        profiles = np.abs(rows[local] - query)
        answers[n] = (
            global_ids,
            np.partition(profiles, n - 1, axis=1)[:, n - 1],
        )
    return answers


def merge_top_k(
    ids: np.ndarray, differences: np.ndarray, k: int
) -> Tuple[List[int], List[float]]:
    """The ``k`` best ``(difference, id)`` pairs in canonical order.

    ``ids`` and ``differences`` are aligned 1-D arrays — typically the
    concatenation of per-part answer lists with ids already mapped to
    the global id space.  Returns ids and differences sorted by
    ascending difference, ties broken by ascending id (the naive
    oracle's order), truncated to ``k`` entries.

    For this to reproduce an unpartitioned engine bit-for-bit, each
    input list must itself be a superset of the global answers it can
    contribute (per-part top-``min(k, |part|)`` lists are — see the
    module docstring) and the differences must be computed with the same
    float64 arithmetic the serial engines use (``|data[pid] - query|``
    order statistics; same operands, same result, bit for bit).
    """
    ids = np.asarray(ids, dtype=np.int64)
    differences = np.asarray(differences, dtype=np.float64)
    order = np.lexsort((ids, differences))
    chosen = order[:k]
    return (
        [int(ids[i]) for i in chosen],
        [float(differences[i]) for i in chosen],
    )


def merge_parts(
    parts: Sequence[PartAnswers],
    part_stats: Sequence[SearchStats],
    k: int,
    n_range: Tuple[int, int],
    total_attributes: int,
    frequent: bool = False,
    keep_answer_sets: bool = True,
    top_k=merge_top_k,
) -> Union[MatchResult, FrequentMatchResult]:
    """The exact global answer from every part's candidates.

    Merges each ``n`` in ``n_range`` across ``parts`` with ``top_k``,
    then returns a :class:`MatchResult` for ``n_range[0]`` — or, with
    ``frequent``, counts frequencies over the merged answer sets into a
    :class:`FrequentMatchResult` (Def. 4: merge first, count second).
    ``top_k`` is :func:`merge_top_k`; the shard coordinator passes the
    name bound in its own module, so a timer wrapped around that name
    sees every per-``n`` merge.

    Stats roll up from ``SearchStats(total_attributes=total_attributes)``
    — the live ``cardinality * d`` of the whole partitioned set — by
    :meth:`SearchStats.merge` with every part's stats: counters sum,
    and the denominator stays the global one (a part's own denominator
    is never larger).
    """
    n0, n1 = n_range
    stats = SearchStats(total_attributes=int(total_attributes))
    for item in part_stats:
        stats = stats.merge(item)
    merged = {
        n: top_k(
            np.concatenate([part[n][0] for part in parts]),
            np.concatenate([part[n][1] for part in parts]),
            k,
        )
        for n in range(n0, n1 + 1)
    }
    if not frequent:
        ids, differences = merged[n0]
        return MatchResult(
            ids=ids, differences=differences, k=k, n=n0, stats=stats
        )
    answer_sets = {n: ids for n, (ids, _differences) in merged.items()}
    chosen, frequencies = rank_by_frequency(answer_sets, k)
    return FrequentMatchResult(
        ids=chosen,
        frequencies=frequencies,
        k=k,
        n_range=(n0, n1),
        answer_sets=answer_sets if keep_answer_sets else None,
        stats=stats,
    )
