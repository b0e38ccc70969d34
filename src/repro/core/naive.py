"""Naive (full scan) algorithms for k-n-match and frequent k-n-match.

This is the baseline the paper describes at the start of Sec. 3: "compute
the n-match difference of every point and return the top k answers"; for
the frequent variant, "maintain a top k answer set for each n value
required by the query while checking every point".  Every attribute of
every point is retrieved, which is exactly what the AD algorithm avoids.

Besides serving as the scan baseline of the efficiency study, this engine
is the *correctness oracle* for every other engine in the test suite: it
is a direct, vectorised transcription of Definitions 1-4 with fully
deterministic tie-breaking (ascending difference, then ascending id).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.observer import Observed
from . import validation
from .types import FrequentMatchResult, MatchResult, SearchStats, rank_by_frequency

__all__ = ["NaiveScanEngine", "naive_k_n_match", "naive_frequent_k_n_match"]


class NaiveScanEngine(Observed):
    """Full-scan engine over an in-memory ``(c, d)`` array."""

    name = "naive-scan"

    def __init__(
        self,
        data,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> None:
        self._data = validation.as_database_array(data)
        self._metrics = metrics
        self._spans = spans

    @property
    def data(self) -> np.ndarray:
        """The underlying ``(cardinality, dimensionality)`` array."""
        return self._data

    @property
    def cardinality(self) -> int:
        return self._data.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._data.shape[1]

    def k_n_match(self, query, k: int, n: int) -> MatchResult:
        """Scan every point; return the k smallest n-match differences.

        Ties on the n-match difference are broken by ascending point id,
        making the answer set unique and reproducible.
        """
        c, d = self._data.shape
        query, k, n = validation.validate_match_args(query, k, n, c, d)

        with self._observe("k_n_match", d, k=k, n=n) as q:
            deltas = np.abs(self._data - query)
            differences = np.partition(deltas, n - 1, axis=1)[:, n - 1]
            chosen = np.lexsort((np.arange(c), differences))[:k]
            q.spans.annotate(points_scanned=c)
            q.stats = self._scan_stats()
        return MatchResult(
            ids=[int(i) for i in chosen],
            differences=[float(differences[i]) for i in chosen],
            k=k,
            n=n,
            stats=q.stats,
        )

    def frequent_k_n_match(
        self,
        query,
        k: int,
        n_range: Tuple[int, int],
        keep_answer_sets: bool = True,
    ) -> FrequentMatchResult:
        """Scan once, keep a top-k answer set per n in ``n_range``.

        The per-point *match profile* (all d order statistics of the
        differences) is computed with one sort per point; column ``n-1``
        then holds every point's n-match difference.
        """
        c, d = self._data.shape
        query, k, (n0, n1) = validation.validate_frequent_args(
            query, k, n_range, c, d
        )

        with self._observe("frequent_k_n_match", d, k=k, n0=n0, n1=n1) as q:
            profiles = np.sort(np.abs(self._data - query), axis=1)
            ids = np.arange(c)
            answer_sets: Dict[int, List[int]] = {}
            for n in range(n0, n1 + 1):
                order = np.lexsort((ids, profiles[:, n - 1]))
                answer_sets[n] = [int(i) for i in order[:k]]
            with q.spans.span("rank"):
                chosen, frequencies = rank_by_frequency(answer_sets, k)
            q.stats = self._scan_stats()
        return FrequentMatchResult(
            ids=chosen,
            frequencies=frequencies,
            k=k,
            n_range=(n0, n1),
            answer_sets=answer_sets if keep_answer_sets else None,
            stats=q.stats,
        )

    def _scan_stats(self) -> SearchStats:
        """Every attribute of every point: the full scan's cost."""
        c, d = self._data.shape
        return SearchStats(
            attributes_retrieved=c * d,
            total_attributes=c * d,
            points_scanned=c,
        )


def naive_k_n_match(data, query, k: int, n: int) -> MatchResult:
    """One-shot convenience wrapper around :class:`NaiveScanEngine`."""
    return NaiveScanEngine(data).k_n_match(query, k, n)


def naive_frequent_k_n_match(
    data, query, k: int, n_range: Tuple[int, int]
) -> FrequentMatchResult:
    """One-shot convenience wrapper around :class:`NaiveScanEngine`."""
    return NaiveScanEngine(data).frequent_k_n_match(query, k, n_range)
