"""Scatter-gather query execution across database shards.

:class:`ScatterGatherCoordinator` fans a (frequent) k-n-match query —
or a whole batch — out to per-shard :class:`~repro.core.engine.MatchDatabase`
instances, then merges the per-shard answers into the exact global
answer with the canonical tie-break (ascending difference, then
ascending *global* id; see :mod:`repro.core.merge`).

The fan-out reuses :class:`~repro.parallel.ParallelBatchExecutor`: shard
indices are presented to the executor as a one-column "query batch"
(one row per shard, ``chunk_size=1`` so every shard is its own work
unit), which buys the shard layer the executor's whole scheduling
stack — thread pool, inline fast path for one shard or one worker, and,
with a metrics registry installed, per-shard latency/straggler/worker-
utilisation metrics under the ``shard-scatter`` engine label.

Both backends run the same shard task
(:func:`~repro.shard.procpool._run_task`), and every query's answers go
through the one exact merge of :mod:`repro.core.merge` — frequent
queries merge per ``n`` *before* counting, as Definition 4 requires.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import MatchDatabase
from ..core.merge import answer_set_differences, merge_parts, merge_top_k
from ..core.types import FrequentMatchResult, MatchResult, SearchStats
from ..errors import ValidationError
from ..parallel import BatchStats, ParallelBatchExecutor
from .procpool import ShardProcessPool, _run_task

__all__ = [
    "ScatterGatherCoordinator",
    "SHARD_BACKENDS",
    "validate_shard_backend",
]

#: Execution backends for the scatter fan-out: ``"thread"`` reuses the
#: executor's thread pool in-process; ``"process"`` runs each shard call
#: in a persistent spawned worker over shared-memory columns
#: (:mod:`repro.shard.procpool`), escaping the GIL.  Answers are
#: bit-identical either way — the canonical merge always runs here, in
#: the coordinator process.
SHARD_BACKENDS = ("thread", "process")

#: Shard task kind (``procpool._run_task``) for each scatter kind.
_POOL_KINDS = {
    "k_n_match": "query",
    "frequent_k_n_match": "frequent",
    "k_n_match_batch": "batch",
    "frequent_k_n_match_batch": "frequent_batch",
}


def validate_shard_backend(backend: str) -> str:
    """Check ``backend`` against :data:`SHARD_BACKENDS` and return it.

    Every layer that accepts a backend name (the coordinator, the
    sharded database, the loader, the CLI, the server) funnels through
    here so an unknown backend raises the same :class:`ValidationError`
    everywhere.
    """
    if backend not in SHARD_BACKENDS:
        raise ValidationError(
            f"unknown shard backend {backend!r}; choose from {SHARD_BACKENDS}"
        )
    return backend


class _ShardOutput:
    """One shard's contribution to a scatter: its per-query results.

    ``stats`` (their roll-up) is what :class:`ParallelBatchExecutor`
    aggregates into its :class:`BatchStats`; ``queries`` feeds the
    per-shard obs counters.
    """

    __slots__ = ("results", "stats", "queries")

    def __init__(self, payload) -> None:
        self.results = payload if isinstance(payload, list) else [payload]
        self.stats = SearchStats.aggregate(
            [result.stats for result in self.results]
        )
        self.queries = len(self.results)


class _ShardTaskEngine:
    """Adapter letting :class:`ParallelBatchExecutor` schedule shards.

    The executor fans out rows of a query batch; here each "row" is a
    shard position encoded as a one-element float vector.  The adapter
    deliberately defines no ``k_n_match_batch`` so the executor falls
    back to its per-row loop — one :meth:`k_n_match` call per shard —
    and ``k``/``n`` are ignored dummies.
    """

    name = "shard-scatter"

    def __init__(self, run_shard) -> None:
        self._run_shard = run_shard

    def k_n_match(self, task: np.ndarray, k: int, n: int) -> _ShardOutput:
        return self._run_shard(int(task[0]))


class ScatterGatherCoordinator:
    """Fan queries out over shards; merge exact global answers back.

    Parameters
    ----------
    shards:
        ``(shard_index, database, global_ids)`` triples for every
        *non-empty* shard.  ``global_ids`` maps the shard's local point
        ids (its row numbers) to global ids and must be ascending — the
        sharded database builds shards in ascending global id order, so
        local id order preserves global id order and the merge tie-break
        is exact.
    total_attributes:
        ``cardinality * dimensionality`` of the *whole* database, used
        as the denominator of merged :class:`SearchStats`.
    workers:
        Fan-out thread-pool size; defaults to one worker per shard,
        capped at ``os.cpu_count()``.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; enables per-shard
        counters/latency (``repro_shard_*``) plus the executor's
        scatter-level metrics.  Answers are identical either way.
    spans:
        Optional :class:`~repro.obs.SpanCollector`; each logical query
        then traces as a ``sharded/<kind>`` root with ``shard_fanout``
        and ``merge`` phases, plus one ``shard_call`` span per shard on
        its worker thread.
    partitioner:
        Name of the partitioning strategy that built the shards, carried
        as a label on the ``repro_shard_*`` metrics so per-shard skew
        can be attributed to the strategy that caused it.
    backend:
        ``"thread"`` (default) fans out on the executor's thread pool;
        ``"process"`` fans out to a persistent spawned worker pool over
        shared-memory shard columns (lazy-started on the first scatter;
        release it with :meth:`close` or a ``with`` block).  Answers and
        merged stats are bit-identical in both modes.
    """

    def __init__(
        self,
        shards: Sequence[Tuple[int, MatchDatabase, np.ndarray]],
        total_attributes: int,
        workers: Optional[int] = None,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
        partitioner: str = "",
        backend: str = "thread",
    ) -> None:
        if not shards:
            raise ValidationError("scatter-gather needs at least one shard")
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1; got {workers}")
        self._shards = list(shards)
        self._total_attributes = int(total_attributes)
        self._workers = (
            int(workers)
            if workers is not None
            else max(1, min(len(self._shards), os.cpu_count() or 1))
        )
        self._metrics = metrics
        self._spans = spans
        self._partitioner = str(partitioner)
        self._backend = validate_shard_backend(backend)
        self._pool = None
        self._last_batch_stats: Optional[BatchStats] = None

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers

    @property
    def backend(self) -> str:
        """The fan-out backend, ``"thread"`` or ``"process"``."""
        return self._backend

    def set_backend(
        self, backend: str, workers: Optional[int] = None
    ) -> None:
        """Switch the fan-out backend (and optionally the worker count).

        Releases the process pool (if any) when the configuration
        changes; the next scatter lazily builds whatever the new mode
        needs.  Answers are identical before and after.
        """
        backend = validate_shard_backend(backend)
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1; got {workers}")
        changed = backend != self._backend or (
            workers is not None and int(workers) != self._workers
        )
        if changed:
            self.close()
            self._pool = None
        self._backend = backend
        if workers is not None:
            self._workers = int(workers)

    def close(self) -> None:
        """Release backend resources (idempotent, restart-friendly).

        Only the process backend holds releasable state — its worker
        pool and shared-memory segments.  A scatter after ``close()``
        transparently restarts the pool, so ``close()`` is a resource
        release, never a poison pill; the thread backend makes this a
        no-op, keeping one lifecycle contract across backends.
        """
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ScatterGatherCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = ShardProcessPool(
                [(shard_index, db) for shard_index, db, _ in self._shards],
                workers=min(self._workers, len(self._shards)),
                default_engine=self._shards[0][1].default_engine,
            )
        return self._pool

    @property
    def metrics(self):
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry

    @property
    def spans(self):
        """The installed :class:`~repro.obs.SpanCollector`, or ``None``."""
        return self._spans

    @spans.setter
    def spans(self, collector) -> None:
        self._spans = collector

    @property
    def partitioner(self) -> str:
        """The partitioner name used as a ``repro_shard_*`` label."""
        return self._partitioner

    @property
    def last_batch_stats(self) -> Optional[BatchStats]:
        """The :class:`BatchStats` of the most recent ``*_batch`` call."""
        return self._last_batch_stats

    # ------------------------------------------------------------------
    def k_n_match(
        self, query: np.ndarray, k: int, n: int, engine: Optional[str] = None
    ) -> MatchResult:
        """Exact global k-n-match via per-shard top-k + canonical merge."""
        return self._gather(
            "k_n_match", query, k, (n, n), engine, True, dict(k=k, n=n)
        )[0]

    def frequent_k_n_match(
        self,
        query: np.ndarray,
        k: int,
        n_range: Tuple[int, int],
        engine: Optional[str] = None,
        keep_answer_sets: bool = True,
    ) -> FrequentMatchResult:
        """Exact global frequent k-n-match.

        Per-``n`` answer sets are merged across shards first (each to
        the exact global k-list), and frequencies are counted over the
        merged sets — the order Definition 4 requires.
        """
        n0, n1 = n_range
        return self._gather(
            "frequent_k_n_match", query, k, (n0, n1), engine,
            keep_answer_sets, dict(k=k, n0=n0, n1=n1),
        )[0]

    def k_n_match_batch(
        self,
        queries: np.ndarray,
        k: int,
        n: int,
        engine: Optional[str] = None,
    ) -> List[MatchResult]:
        """One exact global k-n-match per query row, shard-parallel.

        Every shard runs the *whole* batch through its own engine's
        native batch path (lock-step vectorisation for
        ``batch-block-ad``), so the scatter parallelism composes with
        the batch engines rather than replacing them.
        """
        return self._gather_batch(
            "k_n_match_batch", queries, k, (n, n), engine, True,
            dict(k=k, n=n),
        )

    def frequent_k_n_match_batch(
        self,
        queries: np.ndarray,
        k: int,
        n_range: Tuple[int, int],
        engine: Optional[str] = None,
        keep_answer_sets: bool = False,
    ) -> List[FrequentMatchResult]:
        """One exact global frequent k-n-match per query row."""
        n0, n1 = n_range
        return self._gather_batch(
            "frequent_k_n_match_batch", queries, k, (n0, n1), engine,
            keep_answer_sets, dict(k=k, n0=n0, n1=n1),
        )

    # ------------------------------------------------------------------
    def _gather_batch(
        self, kind, queries, k, n_range, engine, keep_answer_sets, meta
    ) -> list:
        """:meth:`_gather` plus the batch bookkeeping."""
        count = queries.shape[0]
        started = time.perf_counter()
        if count == 0:
            self._last_batch_stats = BatchStats(
                queries=0, shards=0, workers=self._workers,
                backend=self._backend,
            )
            return []
        merged = self._gather(
            kind, queries, k, n_range, engine, keep_answer_sets,
            dict(batch=count, **meta),
        )
        self._last_batch_stats = BatchStats(
            queries=count,
            shards=len(self._shards),
            workers=self._workers,
            wall_time_seconds=time.perf_counter() - started,
            total=SearchStats.aggregate([result.stats for result in merged]),
            backend=self._backend,
        )
        return merged

    def _gather(
        self, kind, task_input, k, n_range, engine, keep_answer_sets, meta
    ) -> list:
        """Scatter one task per shard, then merge every query's answers.

        ``task_input`` is the caller's own query vector (or batch
        matrix): the per-shard calls receive that very object.
        """
        engine_name = self._engine_name(engine)
        frequent = kind.startswith("frequent")
        queries = task_input if kind.endswith("_batch") else [task_input]
        args = (
            task_input, k, n_range if frequent else n_range[0], engine_name
        )
        spans = self._spans
        if spans is None:
            outputs = self._scatter(kind, engine_name, args)
            return self._merge(
                outputs, queries, k, n_range, frequent, keep_answer_sets
            )
        with spans.span(f"sharded/{kind}", **meta, shards=len(self._shards)):
            outputs = self._scatter(kind, engine_name, args)
            with spans.span("merge"):
                return self._merge(
                    outputs, queries, k, n_range, frequent, keep_answer_sets
                )

    def _merge(
        self, outputs, queries, k, n_range, frequent, keep_answer_sets
    ) -> list:
        """Per query: exact differences per shard, then the global merge.

        Each shard's answer sets (shard-local rows) become global ids
        and n-match differences (:func:`answer_set_differences`); the
        per-``n`` merge and any frequency count follow in
        :func:`merge_parts` (merge first, count second — Def. 4).
        """
        merged = []
        for position, query in enumerate(queries):
            results = [output.results[position] for output in outputs]
            parts = [
                answer_set_differences(
                    db.data,
                    query,
                    result.answer_sets if frequent else {result.n: result.ids},
                    gids,
                )
                for (_, db, gids), result in zip(self._shards, results)
            ]
            merged.append(
                merge_parts(
                    parts,
                    [result.stats for result in results],
                    k,
                    n_range,
                    self._total_attributes,
                    frequent,
                    keep_answer_sets,
                    top_k=merge_top_k,
                )
            )
        return merged

    def _engine_name(self, engine: Optional[str]) -> str:
        return engine or self._shards[0][1].default_engine

    def _scatter(
        self, kind: str, engine_name: str, args: tuple
    ) -> List[_ShardOutput]:
        """Run one ``kind`` task with ``args`` on every shard.

        Both backends execute :func:`~repro.shard.procpool._run_task` —
        in-process on the executor's threads, or in the worker pool — so
        everything downstream (merge, stats roll-up) is
        backend-agnostic.
        """
        if self._backend == "process":
            return self._scatter_process(kind, engine_name, args)
        return self._scatter_thread(kind, engine_name, args)

    def _scatter_thread(
        self, kind: str, engine_name: str, args: tuple
    ) -> List[_ShardOutput]:
        """Run the task for every shard via the executor."""
        task_kind = _POOL_KINDS[kind]

        def run_one(position: int) -> _ShardOutput:
            db = self._shards[position][1]
            return _ShardOutput(_run_task(db, task_kind, args))

        registry = self._metrics
        spans = self._spans
        if registry is None and spans is None:
            run = run_one
        else:
            # Captured on the request thread: pool-thread shard_call
            # roots re-attach it so cross-thread siblings stay
            # correlated with the request that spawned them.
            trace_id = (
                spans.capture_context("trace_id")
                if spans is not None
                else None
            )

            def run(position: int) -> _ShardOutput:
                shard_index = self._shards[position][0]
                shard_started = (
                    time.perf_counter() if registry is not None else 0.0
                )
                if spans is None:
                    output = run_one(position)
                else:
                    # On a pool worker this opens a new root (span stacks
                    # are thread-confined); inline it nests under the
                    # ``shard_fanout`` span of the calling thread.
                    call_meta = dict(
                        shard=shard_index,
                        engine=engine_name,
                        kind=kind,
                        backend="thread",
                    )
                    if trace_id is not None:
                        call_meta["trace_id"] = trace_id
                    with spans.span("shard_call", **call_meta):
                        output = run_one(position)
                if registry is not None:
                    from ..obs import observe_shard_call

                    observe_shard_call(
                        registry,
                        shard=str(shard_index),
                        engine=engine_name,
                        kind=kind,
                        queries=output.queries,
                        stats=output.stats,
                        wall_seconds=time.perf_counter() - shard_started,
                        partitioner=self._partitioner,
                        backend="thread",
                    )
                return output

        tasks = np.arange(len(self._shards), dtype=np.float64).reshape(-1, 1)
        executor = ParallelBatchExecutor(
            _ShardTaskEngine(run),
            workers=min(self._workers, len(self._shards)),
            chunk_size=1,
            metrics=registry,
        )
        if spans is None:
            return list(executor.k_n_match_batch(tasks, 1, 1))
        with spans.span(
            "shard_fanout",
            kind=kind,
            engine=engine_name,
            shards=len(self._shards),
            backend="thread",
        ):
            return list(executor.k_n_match_batch(tasks, 1, 1))

    def _scatter_process(
        self, kind: str, engine_name: str, args: tuple
    ) -> List[_ShardOutput]:
        """Fan the scatter out to the shared-memory worker pool.

        One pool task per shard; the pool load-balances them over its
        workers and ships back the task's payload, plus a per-shard envelope (worker pid, worker
        wall seconds).  Spans and metrics are recorded here, post hoc —
        worker processes never see the obs objects — with the worker's
        own wall time as the duration of record.
        """
        pool = self._ensure_pool()
        pool_kind = _POOL_KINDS[kind]
        tasks = [
            (position, pool_kind, args)
            for position in range(len(self._shards))
        ]
        spans = self._spans
        if spans is None:
            results = pool.run_tasks(tasks)
        else:
            with spans.span(
                "shard_fanout",
                kind=kind,
                engine=engine_name,
                shards=len(self._shards),
                backend="process",
                workers=pool.workers,
            ):
                results = pool.run_tasks(tasks, want_spans=True)
        registry = self._metrics
        trace_id = (
            spans.capture_context("trace_id") if spans is not None else None
        )
        outputs: List[_ShardOutput] = []
        for position, result in enumerate(results):
            shard_index = self._shards[position][0]
            output = _ShardOutput(result.payload)
            if spans is not None:
                # Post-hoc marker span: the shard ran in a worker
                # process, so the span's own duration is ~0 and the
                # authoritative timing is the shipped-back
                # ``worker_seconds`` annotation.  The worker's own span
                # forest (shipped in the ok envelope) is then grafted
                # underneath, rebased onto this span's clock, so the
                # tree shows real worker phase rows.
                call_meta = dict(
                    shard=shard_index,
                    engine=engine_name,
                    kind=kind,
                    backend="process",
                    worker_pid=result.worker_pid,
                    worker_seconds=result.worker_seconds,
                )
                if trace_id is not None:
                    call_meta["trace_id"] = trace_id
                with spans.span("shard_call", **call_meta) as call_span:
                    pass
                if result.spans:
                    from ..obs.spans import span_from_dict, stitch_worker_spans

                    stitch_worker_spans(
                        call_span,
                        [span_from_dict(tree) for tree in result.spans],
                        result.worker_pid,
                    )
            if registry is not None:
                from ..obs import observe_shard_call

                observe_shard_call(
                    registry,
                    shard=str(shard_index),
                    engine=engine_name,
                    kind=kind,
                    queries=output.queries,
                    stats=output.stats,
                    wall_seconds=result.worker_seconds,
                    partitioner=self._partitioner,
                    backend="process",
                )
            outputs.append(output)
        return outputs
