"""Persistent multiprocess shard workers over shared memory.

The thread-backed scatter (:mod:`repro.shard.coordinator`) tops out at
the GIL: per-shard engine calls spend most of their time inside numpy,
but the Python glue between ufuncs serialises, and the measured result
is thread fan-out *losing* to single-thread vectorised execution
(``BENCH_shard.json``).  This module is the escape: each shard's
prebuilt :class:`~repro.sorted_lists.SortedColumns` — the raw data plus
the ``(d, c)`` sorted values/ids matrices — is published **once** into
:mod:`multiprocessing.shared_memory` segments, and a small persistent
pool of **spawned** worker processes maps them back as zero-copy,
read-only numpy views.  Per query, only the task tuple (a query vector,
``k``, ``n``, an engine name) and the per-shard result (k ids per
answer set, a :class:`~repro.core.types.SearchStats`) cross the
process boundary — kilobytes of IPC, never the database.

Exactness is inherited, not re-proven: workers run the very same
:class:`~repro.core.engine.MatchDatabase` engines over the very same
float64 arrays (bit-for-bit — shared memory, not a re-sorted copy), and
the canonical tie-break merge stays in the coordinator process, so
process-backed answers are bit-identical to thread-backed and serial
execution.

Lifecycle contract (shared with the thread backend):

* the pool starts lazily on the first scatter and persists across
  queries;
* :meth:`ShardProcessPool.close` is idempotent and releases everything
  (workers joined or terminated, segments unlinked); a later scatter
  transparently restarts the pool, mirroring the thread backend where
  ``close()`` is a resource release, never a poison pill;
* segments are additionally covered by a :func:`weakref.finalize`
  guard (which registers atexit), so an abandoned pool cannot orphan
  ``/dev/shm`` entries;
* a worker death is detected, not hung on: every task is claimed by its
  worker before execution, so a missing result from a dead claimant
  raises a structured :class:`~repro.errors.ShardWorkerError` naming
  the pid and exit code (a short post-death grace window covers the
  case where the claim message itself died with the worker); the next
  scatter respawns the dead workers.

Everything a spawned child needs is importable at module level (no
closures, no fork-inherited state), so the pool is spawn-safe on every
platform and immune to the fork-vs-threads deadlocks that make
``fork``-based pools unusable under a threaded server.
"""

from __future__ import annotations

import itertools
import os
import queue
import signal
import threading
import time
import traceback
import uuid
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

from ..core.engine import MatchDatabase
from ..errors import ShardWorkerError, ValidationError
from ..obs.spans import SpanCollector, span_to_dict
from ..sorted_lists import SortedColumns

__all__ = ["ShardProcessPool", "ShardSegmentSpec"]

#: Segment offsets are aligned so every mapped array starts on a cache
#: line; numpy neither needs nor checks this, but it keeps the layout
#: predictable and the float64 views naturally aligned.
_ALIGN = 64

#: How long the collector waits on the result queue before re-checking
#: worker liveness.  Purely a detection latency knob — correctness does
#: not depend on it.
_POLL_SECONDS = 0.1

#: Grace given to a worker between the shutdown sentinel and SIGTERM.
_JOIN_SECONDS = 5.0

#: Once a dead worker is observed with tasks outstanding, how long the
#: collector keeps waiting for further messages before declaring the
#: scatter lost.  Needed because a SIGKILLed worker can swallow a task
#: *and* lose its claim message (queue feeder threads die with the
#: process), which no claim bookkeeping can see; any arriving message
#: resets the deadline, so only a genuinely silent pool trips it.
_DEATH_GRACE_SECONDS = 2.0

#: Task kinds understood by the worker loop.  ``__test_crash__`` is a
#: deliberate crash hook (SIGKILL from inside the task) used by the
#: worker-death tests; it is never emitted by the coordinator.
_KINDS = ("query", "frequent", "batch", "frequent_batch", "__test_crash__")


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class _ArraySpec:
    """Placement of one numpy array inside a shared segment."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ShardSegmentSpec:
    """Everything a worker needs to map one shard: name + array layout.

    Picklable and tiny — this (not the data) is what crosses the
    process boundary at pool start.
    """

    name: str
    position: int
    shard_index: int
    data: _ArraySpec
    values: _ArraySpec
    ids: _ArraySpec


def _publish_shard(
    position: int, shard_index: int, columns: SortedColumns
) -> Tuple[shared_memory.SharedMemory, ShardSegmentSpec]:
    """Copy one shard's arrays into a fresh shared segment, once."""
    data = np.ascontiguousarray(columns.data, dtype=np.float64)
    values = np.ascontiguousarray(columns.values_matrix, dtype=np.float64)
    ids = np.ascontiguousarray(columns.ids_matrix, dtype=np.int64)
    offsets = []
    offset = 0
    for array in (data, values, ids):
        offset = _align(offset)
        offsets.append(offset)
        offset += array.nbytes
    name = f"repro-shard-{os.getpid()}-{uuid.uuid4().hex[:8]}-{position}"
    segment = shared_memory.SharedMemory(
        name=name, create=True, size=max(offset, 1)
    )
    specs = []
    for array, start in zip((data, values, ids), offsets):
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf, offset=start
        )
        view[...] = array
        specs.append(_ArraySpec(start, tuple(array.shape), array.dtype.str))
    return segment, ShardSegmentSpec(
        name=name,
        position=position,
        shard_index=shard_index,
        data=specs[0],
        values=specs[1],
        ids=specs[2],
    )


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment; the parent owns unlinking.

    On Python >= 3.13 ``track=False`` says so explicitly.  Before that,
    attaching re-registers the name with the resource tracker — but
    spawned children inherit the parent's tracker process and
    registration is idempotent there, so the parent's single
    close-and-unlink still retires the name exactly once; unregistering
    here would instead *remove the parent's registration* out from
    under it.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _map_array(segment: shared_memory.SharedMemory, spec: _ArraySpec):
    view = np.ndarray(
        spec.shape,
        dtype=np.dtype(spec.dtype),
        buffer=segment.buf,
        offset=spec.offset,
    )
    view.flags.writeable = False
    return view


def _release_segments(segments: Sequence[shared_memory.SharedMemory]) -> None:
    """Detach and unlink every segment; tolerant of partial teardown."""
    for segment in segments:
        try:
            segment.close()
        except Exception:
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _run_task(db: MatchDatabase, kind: str, args: tuple):
    """Execute one shard task; both scatter backends run exactly this.

    ``query`` -> MatchResult; ``frequent`` -> FrequentMatchResult (with
    its answer sets); ``batch`` -> [MatchResult]; ``frequent_batch`` ->
    [FrequentMatchResult].  ``k`` is clamped to the shard's size; the
    coordinator merges the shard-local answers.
    """
    if kind == "__test_crash__":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind not in _KINDS:
        raise ValueError(f"unknown task kind {kind!r}")
    query, k, n, engine = args  # batch kinds: query is a matrix
    k = min(k, db.cardinality)
    if kind == "query":
        return db.k_n_match(query, k, n, engine=engine)
    if kind == "batch":
        return db.k_n_match_batch(query, k, n, engine=engine)
    frequent = (
        db.frequent_k_n_match
        if kind == "frequent"
        else db.frequent_k_n_match_batch
    )
    return frequent(query, k, n, engine=engine, keep_answer_sets=True)


def _worker_main(
    specs: List[ShardSegmentSpec],
    default_engine: str,
    tasks,
    results,
) -> None:
    """Worker loop: attach segments once, then serve tasks until sentinel.

    Every task is acknowledged with a *claim* message before execution,
    so the coordinator can tell "task lost inside a dead worker" from
    "task still queued for a live one".  Task failures are shipped back
    as structured error payloads — a worker never dies on a bad query.
    """
    pid = os.getpid()
    segments: Dict[int, shared_memory.SharedMemory] = {}
    databases: Dict[int, MatchDatabase] = {}
    by_position = {spec.position: spec for spec in specs}
    try:
        for spec in specs:
            segments[spec.position] = _attach_segment(spec.name)
        while True:
            task = tasks.get()
            if task is None:
                break
            task_id, position, kind, args, want_spans = task
            results.put(("claim", task_id, pid, None, 0.0, None))
            started = time.perf_counter()
            collector: Optional[SpanCollector] = None
            try:
                db = databases.get(position)
                if db is None:
                    spec = by_position[position]
                    segment = segments[position]
                    columns = SortedColumns.from_prebuilt(
                        _map_array(segment, spec.data),
                        _map_array(segment, spec.values),
                        _map_array(segment, spec.ids),
                    )
                    db = MatchDatabase.from_columns(
                        columns, default_engine=default_engine
                    )
                    databases[position] = db
                if want_spans:
                    # One fresh collector per spanned task: its ring then
                    # holds exactly this task's root trees, in open order,
                    # ready to ship back in the ok envelope.  Without a
                    # coordinator collector (want_spans False) the worker
                    # records no spans at all.
                    collector = SpanCollector()
                    db.set_spans(collector)
                payload = _run_task(db, kind, args)
            except BaseException as error:  # ship it, don't die
                detail = (
                    f"{type(error).__name__}: {error}\n"
                    + traceback.format_exc()
                )
                results.put(
                    (
                        "error",
                        task_id,
                        pid,
                        detail,
                        time.perf_counter() - started,
                        None,
                    )
                )
            else:
                span_trees = None
                if collector is not None:
                    span_trees = [
                        span_to_dict(root) for root in collector.traces()
                    ]
                results.put(
                    (
                        "ok",
                        task_id,
                        pid,
                        payload,
                        time.perf_counter() - started,
                        span_trees,
                    )
                )
            finally:
                if collector is not None:
                    db.set_spans(None)
    finally:
        for segment in segments.values():
            try:
                segment.close()
            except Exception:
                pass


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class PoolResult:
    """One shard's answer envelope: payload + where/how long it ran.

    ``spans`` is the worker-side span forest (``span_to_dict`` form,
    worker clock) when the scatter asked for it, else ``None``.
    """

    __slots__ = ("payload", "worker_seconds", "worker_pid", "spans")

    def __init__(
        self,
        payload,
        worker_seconds: float,
        worker_pid: int,
        spans=None,
    ) -> None:
        self.payload = payload
        self.worker_seconds = worker_seconds
        self.worker_pid = worker_pid
        self.spans = spans


class ShardProcessPool:
    """Persistent spawn pool over shared-memory shard columns.

    Parameters
    ----------
    shards:
        ``(shard_index, database)`` pairs in coordinator position order;
        each database's prebuilt sorted columns are what gets published.
    workers:
        Number of worker processes (every worker maps every shard, so
        any worker can serve any shard — one shared task queue load-
        balances the fan-out).
    default_engine:
        Default engine name for worker-side databases, matching the
        coordinator's shards so ``engine=None`` resolves identically.
    """

    def __init__(
        self,
        shards: Sequence[Tuple[int, MatchDatabase]],
        workers: int,
        default_engine: str = "ad",
    ) -> None:
        if not shards:
            raise ValidationError("process pool needs at least one shard")
        if workers < 1:
            raise ValidationError(f"workers must be >= 1; got {workers}")
        self._shards = list(shards)
        self._workers_wanted = int(workers)
        self._default_engine = default_engine
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.RLock()
        self._task_ids = itertools.count()
        self._segments: List[shared_memory.SharedMemory] = []
        self._specs: List[ShardSegmentSpec] = []
        self._processes: List = []
        self._tasks = None
        self._results = None
        self._finalizer: Optional[weakref.finalize] = None
        self._started = False

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def workers(self) -> int:
        return self._workers_wanted

    def worker_pids(self) -> List[int]:
        """Pids of the current worker processes (empty before start)."""
        return [p.pid for p in self._processes if p.pid is not None]

    @property
    def start_method(self) -> str:
        return self._context.get_start_method()

    def segment_names(self) -> List[str]:
        """Names of the live shared segments (empty before start/after close)."""
        return [spec.name for spec in self._specs]

    # ------------------------------------------------------------------
    def start(self) -> "ShardProcessPool":
        """Publish segments and spawn workers (idempotent)."""
        with self._lock:
            if self._started:
                return self
            segments: List[shared_memory.SharedMemory] = []
            specs: List[ShardSegmentSpec] = []
            try:
                for position, (shard_index, db) in enumerate(self._shards):
                    segment, spec = _publish_shard(
                        position, shard_index, db.columns
                    )
                    segments.append(segment)
                    specs.append(spec)
            except Exception:
                _release_segments(segments)
                raise
            self._segments = segments
            self._specs = specs
            # finalize() registers atexit, so even an abandoned pool
            # cannot orphan its /dev/shm entries.
            self._finalizer = weakref.finalize(
                self, _release_segments, segments
            )
            self._tasks = self._context.Queue()
            self._results = self._context.Queue()
            self._processes = []
            self._started = True
            try:
                self._spawn_missing()
            except Exception:
                self._teardown()
                raise
            return self

    def _spawn_missing(self) -> None:
        """Bring the worker set back to strength (initial spawn or repair)."""
        self._processes = [p for p in self._processes if p.is_alive()]
        while len(self._processes) < self._workers_wanted:
            process = self._context.Process(
                target=_worker_main,
                args=(
                    self._specs,
                    self._default_engine,
                    self._tasks,
                    self._results,
                ),
                name=f"repro-shard-worker-{len(self._processes)}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)

    # ------------------------------------------------------------------
    def run_tasks(
        self,
        tasks: Sequence[Tuple[int, str, tuple]],
        want_spans: bool = False,
    ) -> List[PoolResult]:
        """Scatter ``(position, kind, args)`` tasks; gather in task order.

        ``want_spans=True`` asks every worker to run its task under a
        fresh :class:`SpanCollector` and ship the finished span forest
        back in the ok envelope (``PoolResult.spans``); the default
        keeps the wire format span-free and records nothing in the worker.

        Thread-safe (one scatter at a time; the per-shard fan-out within
        a scatter is what runs in parallel).  Raises
        :class:`ShardWorkerError` when a worker dies holding a task or a
        task raises remotely; either way the pool stays usable — the
        next call respawns dead workers and reissues nothing stale
        (results are matched by task id, so late arrivals from an
        aborted scatter are discarded).
        """
        with self._lock:
            self.start()
            self._spawn_missing()
            issued: Dict[int, int] = {}  # task_id -> task order
            for order, (position, kind, args) in enumerate(tasks):
                task_id = next(self._task_ids)
                issued[task_id] = order
                self._tasks.put(
                    (task_id, position, kind, args, bool(want_spans))
                )
            collected: Dict[int, PoolResult] = {}
            claims: Dict[int, int] = {}  # task_id -> worker pid
            death_deadline: Optional[float] = None
            while len(collected) < len(issued):
                try:
                    message = self._results.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    death_deadline = self._check_workers(
                        issued, collected, claims, death_deadline
                    )
                    continue
                death_deadline = None  # any message is progress
                status, task_id, pid, payload, seconds, span_trees = message
                if task_id not in issued:
                    continue  # stale leftover from an aborted scatter
                if status == "claim":
                    claims[task_id] = pid
                    continue
                if status == "error":
                    raise ShardWorkerError(
                        f"shard task failed in worker pid {pid}: {payload}"
                    )
                collected[task_id] = PoolResult(
                    payload, seconds, pid, span_trees
                )
            ordered: List[Optional[PoolResult]] = [None] * len(issued)
            for task_id, order in issued.items():
                ordered[order] = collected[task_id]
            return ordered

    def _check_workers(
        self, issued, collected, claims, deadline: Optional[float]
    ) -> Optional[float]:
        """Turn a dead worker into a structured error instead of a hang.

        Returns the (possibly newly started) death-grace deadline, or
        ``None`` while every worker is alive or a live worker is known
        to be computing an outstanding task.
        """
        dead = [p for p in self._processes if not p.is_alive()]
        if not dead:
            return None
        dead_pids = {p.pid for p in dead}
        outstanding = [tid for tid in issued if tid not in collected]
        lost = [tid for tid in outstanding if claims.get(tid) in dead_pids]
        all_dead = all(not p.is_alive() for p in self._processes)
        if lost or (all_dead and outstanding):
            raise ShardWorkerError(self._death_message(dead, outstanding))
        if not outstanding:
            return None
        live_pids = {p.pid for p in self._processes if p.is_alive()}
        if any(claims.get(tid) in live_pids for tid in outstanding):
            # A live worker holds an outstanding task: it will report in
            # eventually, and its messages reset the grace window — so a
            # long-running task never trips the deadline.
            return None
        # Dead worker(s), outstanding tasks, and no live claimant.  The
        # tasks *should* still be in the queue for survivors to claim;
        # but a SIGKILLed worker can dequeue a task and die before its
        # claim message flushes (queue feeders die with the process), in
        # which case no claim ever arrives.  Give the queue a grace
        # window, then declare the scatter lost rather than hang.
        now = time.monotonic()
        if deadline is None:
            return now + _DEATH_GRACE_SECONDS
        if now < deadline:
            return deadline
        raise ShardWorkerError(self._death_message(dead, outstanding))

    def _death_message(self, dead, outstanding) -> str:
        detail = ", ".join(f"pid {p.pid} exitcode {p.exitcode}" for p in dead)
        return (
            f"{len(dead)} shard worker(s) died with "
            f"{len(outstanding)} task(s) outstanding ({detail}); "
            f"the pool will respawn workers on the next scatter"
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release workers and segments (idempotent, restart-friendly)."""
        with self._lock:
            if not self._started:
                return
            self._teardown()

    def _teardown(self) -> None:
        for process in self._processes:
            if process.is_alive():
                try:
                    self._tasks.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + _JOIN_SECONDS
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_SECONDS)
        self._processes = []
        for q in (self._tasks, self._results):
            if q is not None:
                try:
                    q.close()
                    q.join_thread()
                except Exception:
                    pass
        self._tasks = None
        self._results = None
        if self._finalizer is not None:
            self._finalizer()  # detach + unlink, exactly once
            self._finalizer = None
        else:
            _release_segments(self._segments)
        self._segments = []
        self._specs = []
        self._started = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardProcessPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass
