"""Thread-pool batch executor over any k-n-match engine.

:class:`ParallelBatchExecutor` shards a query batch across a
``ThreadPoolExecutor`` and reassembles the per-query results in query
order.  Each shard runs the wrapped engine's own batch method when it
has one (so a sharded :class:`~repro.parallel.BatchBlockADEngine` keeps
its lock-step vectorisation within every shard) and falls back to a
per-query loop otherwise — either way the answers are exactly the ones
serial execution would produce, because the engines are pure readers of
a shared immutable :class:`~repro.sorted_lists.SortedColumns` build and
every query is independent.

Threads (not processes) are the right pool here: the hot loops sit
inside numpy ufuncs that release the GIL, and processes would have to
copy the sorted-column build into every worker.  See
``docs/batching.md`` for the full rationale and measured scaling.

With a :class:`~repro.obs.MetricsRegistry` installed (``metrics=``), the
executor additionally records shard-size and shard-latency histograms, a
per-batch straggler ratio (slowest shard over mean shard time) and
per-worker busy-time/utilisation — the signals needed to tune
``workers``/``chunk_size`` on real workloads.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import validation
from ..core.types import FrequentMatchResult, MatchResult, SearchStats
from ..errors import ValidationError
from ..obs.instrument import observe_batch
from ..obs.observer import Observed
from ..obs.spans import NULL_SPANS
from .stats import BatchStats

__all__ = ["ParallelBatchExecutor"]

#: shards per worker; >1 gives the pool work-stealing slack so one slow
#: shard (a straggler query with many epsilon rounds) does not leave the
#: other workers idle for the rest of the batch.
_SHARDS_PER_WORKER = 4


class ParallelBatchExecutor(Observed):
    """Shard query batches over a thread pool, results in query order."""

    def __init__(
        self,
        engine,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> None:
        """Wrap ``engine`` for parallel batch execution.

        Parameters
        ----------
        engine:
            Any object exposing ``k_n_match``/``frequent_k_n_match``
            (and optionally their ``*_batch`` variants, which each shard
            will use when present).
        workers:
            Thread-pool size; defaults to ``os.cpu_count()``.
        chunk_size:
            Queries per shard; defaults to splitting the batch into
            ``workers * 4`` shards (minimum one query each) so the pool
            can rebalance around slow shards.
        metrics:
            Optional :class:`~repro.obs.MetricsRegistry` for shard and
            worker-utilisation metrics.
        spans:
            Optional :class:`~repro.obs.SpanCollector`; each shard then
            opens a ``batch_shard`` span on its worker thread (a root of
            its own trace — span stacks are thread-confined), with the
            wrapped engine's phases nested underneath when it shares the
            collector.
        """
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValidationError(f"workers must be >= 1; got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValidationError(
                f"chunk_size must be >= 1 or None; got {chunk_size}"
            )
        self._engine = engine
        self._workers = int(workers)
        self._chunk_size = None if chunk_size is None else int(chunk_size)
        self._metrics = metrics
        self._spans = spans
        self._last_batch_stats: Optional[BatchStats] = None

    # ------------------------------------------------------------------
    @property
    def engine(self):
        return self._engine

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def last_batch_stats(self) -> Optional[BatchStats]:
        """The :class:`BatchStats` of the most recent batch call."""
        return self._last_batch_stats

    # ------------------------------------------------------------------
    def k_n_match_batch(self, queries, k: int, n: int) -> List[MatchResult]:
        """One k-n-match per row of ``queries``, sharded over the pool."""
        queries, k, n = self._validate_batch(queries, k, n=n)

        def run_shard(shard: np.ndarray) -> Sequence[MatchResult]:
            batch = getattr(self._engine, "k_n_match_batch", None)
            if batch is not None:
                return batch(shard, k, n)
            return [self._engine.k_n_match(query, k, n) for query in shard]

        return self._run(queries, run_shard)

    def frequent_k_n_match_batch(
        self,
        queries,
        k: int,
        n_range: Tuple[int, int],
        keep_answer_sets: bool = False,
    ) -> List[FrequentMatchResult]:
        """One frequent k-n-match per row, sharded over the pool."""
        queries, k, n_range = self._validate_batch(queries, k, n_range=n_range)

        def run_shard(shard: np.ndarray) -> Sequence[FrequentMatchResult]:
            batch = getattr(self._engine, "frequent_k_n_match_batch", None)
            if batch is not None:
                return batch(
                    shard, k, n_range, keep_answer_sets=keep_answer_sets
                )
            return [
                self._engine.frequent_k_n_match(
                    query, k, n_range, keep_answer_sets=keep_answer_sets
                )
                for query in shard
            ]

        return self._run(queries, run_shard)

    # ------------------------------------------------------------------
    def _validate_batch(self, queries, k, n=None, n_range=None):
        """Validate batch arguments once, up front, in the canonical order.

        Engines validate again inside each shard (harmless — validation
        is idempotent), but doing it here guarantees the same
        :class:`ValidationError` for the same bad input on *every*
        engine, including for empty batches where no shard ever runs.
        """
        c = getattr(self._engine, "cardinality", None)
        d = getattr(self._engine, "dimensionality", None)
        if c is None or d is None:
            # Duck-typed engine without shape metadata: best effort.
            queries = np.asarray(queries, dtype=np.float64)
            if queries.ndim != 2:
                raise ValidationError(
                    "queries must be a 2-D array (one row each); "
                    f"got ndim={queries.ndim}"
                )
            return queries, k, n if n_range is None else n_range
        if n_range is None:
            return validation.validate_batch_match_args(queries, k, n, c, d)
        return validation.validate_batch_frequent_args(queries, k, n_range, c, d)

    def _run(self, queries: np.ndarray, run_shard) -> List:
        count = queries.shape[0]
        started = time.perf_counter()
        if count == 0:
            self._last_batch_stats = BatchStats(
                queries=0, shards=0, workers=self._workers
            )
            return []

        spans = self._spans or NULL_SPANS
        bounds = self._shard_bounds(count)
        shards = [queries[lo:hi] for lo, hi in bounds]
        shard_seconds: List[float] = [0.0] * len(shards)
        worker_busy: Dict[int, float] = {}
        # Captured on the calling thread; worker-thread roots carry it so
        # cross-thread traces stay request-correlated.
        trace_id = spans.capture_context("trace_id")

        def run_one(index: int) -> Sequence:
            shard = shards[index]
            shard_started = time.perf_counter()
            # A root span on the worker thread: span stacks are
            # thread-confined, so each shard traces separately.
            shard_meta = dict(shard=index, queries=int(shard.shape[0]))
            if trace_id is not None:
                shard_meta["trace_id"] = trace_id
            with spans.span("batch_shard", **shard_meta):
                output = run_shard(shard)
            elapsed = time.perf_counter() - shard_started
            shard_seconds[index] = elapsed
            ident = threading.get_ident()
            # Per-thread slot writes race only with themselves: each
            # pool thread touches exactly its own key.
            worker_busy[ident] = worker_busy.get(ident, 0.0) + elapsed
            return output

        if len(shards) == 1 or self._workers == 1:
            # No point paying pool overhead for a single runnable unit.
            outputs = [run_one(index) for index in range(len(shards))]
        else:
            with ThreadPoolExecutor(max_workers=self._workers) as pool:
                outputs = list(pool.map(run_one, range(len(shards))))

        results: List = []
        for output in outputs:
            results.extend(output)
        elapsed = time.perf_counter() - started
        self._last_batch_stats = BatchStats(
            queries=count,
            shards=len(shards),
            workers=self._workers,
            wall_time_seconds=elapsed,
            total=SearchStats.aggregate([result.stats for result in results]),
        )
        observe_batch(
            self._metrics,
            getattr(self._engine, "name", "unknown"),
            count,
            [hi - lo for lo, hi in bounds],
            shard_seconds,
            sorted(worker_busy.values(), reverse=True),
            elapsed,
        )
        return results

    def _shard_bounds(self, count: int) -> List[Tuple[int, int]]:
        """Split ``count`` queries into contiguous, near-equal shards.

        For small batches (``count < workers * 4``) this degenerates to
        one query per shard — never an empty shard, and the shard list
        always partitions ``[0, count)`` exactly.
        """
        if self._chunk_size is not None:
            size = self._chunk_size
        else:
            size = max(1, -(-count // (self._workers * _SHARDS_PER_WORKER)))
        return [(lo, min(lo + size, count)) for lo in range(0, count, size)]
