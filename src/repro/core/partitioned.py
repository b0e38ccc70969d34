"""The parts of a mutable point set, and the one exact query body over them.

Both mutable stores — the in-memory
:class:`~repro.core.dynamic.DynamicMatchDatabase` and the durable
:class:`~repro.lsm.store.LsmMatchDatabase` — hold their live points the
same way:

* immutable :class:`Segment`\\ s — frozen ``(rows, pids)`` with a
  static :class:`~repro.core.ad_block.BlockADEngine` over prebuilt
  sorted columns;
* one :class:`Memtable` of freshly inserted points, searched by brute
  force (small by construction);
* a tombstone set of deleted point ids.

:class:`PartitionedStore` is the query surface they share.  Each
segment's engine over-fetches enough answers to survive its tombstones,
the memtable is a part whose answer set is every live row, and
:func:`~repro.core.merge.merge_parts` merges the parts per ``n`` under
the canonical ``(difference, id)`` order — bit-identical to the naive
oracle over the live set.

``pids`` of a segment are sorted ascending.  Point ids are assigned
monotonically at insert time and segments are built from whole sorted
runs, so sorting by pid is free at build time and buys ``searchsorted``
membership tests (tombstone counting, point lookup) at query time.

On disk a segment is the same ``.npz``-with-JSON-header container as
:mod:`repro.io`: raw rows, the pid array, and the prebuilt sorted
columns (installed on load via
:meth:`~repro.sorted_lists.SortedColumns.from_prebuilt`, no re-sort).
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import EmptyDatabaseError, StorageError, ValidationError
from ..obs.observer import Observed
from ..obs.spans import NULL_SPANS
from ..sorted_lists import SortedColumns
from . import validation
from .ad_block import BlockADEngine
from .merge import PartAnswers, answer_set_differences, merge_parts
from .types import FrequentMatchResult, MatchResult, SearchStats

__all__ = [
    "Memtable",
    "PartitionedStore",
    "Segment",
    "SEGMENT_MAGIC",
    "SEGMENT_FORMAT_VERSION",
]

SEGMENT_MAGIC = "repro-lsm-segment"
SEGMENT_FORMAT_VERSION = 1


class Segment:
    """One immutable sorted run: frozen rows, stable pids, lazy engine."""

    def __init__(
        self,
        segment_id: int,
        level: int,
        rows: np.ndarray,
        pids: np.ndarray,
        columns: Optional[SortedColumns] = None,
    ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        pids = np.ascontiguousarray(pids, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise StorageError(
                f"segment rows must be a non-empty 2d array; got {rows.shape}"
            )
        if pids.shape != (rows.shape[0],):
            raise StorageError(
                f"segment pids shape {pids.shape} does not match "
                f"{rows.shape[0]} rows"
            )
        if np.any(np.diff(pids) <= 0):
            raise StorageError("segment pids must be strictly ascending")
        self.segment_id = int(segment_id)
        self.level = int(level)
        self.rows = rows
        self.pids = pids
        self._columns = columns
        self._engine: Optional[BlockADEngine] = None

    # ------------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        return self.rows.shape[0]

    @property
    def dimensionality(self) -> int:
        return self.rows.shape[1]

    @property
    def filename(self) -> str:
        return f"seg-{self.segment_id:08d}.npz"

    def contains_pid(self, pid: int) -> bool:
        position = int(np.searchsorted(self.pids, pid))
        return position < self.pids.shape[0] and int(self.pids[position]) == pid

    def get_point(self, pid: int) -> Optional[np.ndarray]:
        """The coordinates stored for ``pid``, or ``None`` if absent."""
        position = int(np.searchsorted(self.pids, pid))
        if position < self.pids.shape[0] and int(self.pids[position]) == pid:
            return self.rows[position].copy()
        return None

    def dead_count(self, tombstones: set) -> int:
        """How many of this segment's rows are tombstoned."""
        if not tombstones:
            return 0
        if len(tombstones) < 16:
            return sum(1 for pid in tombstones if self.contains_pid(pid))
        mask = np.isin(self.pids, np.fromiter(tombstones, dtype=np.int64))
        return int(mask.sum())

    def _get_engine(self) -> BlockADEngine:
        # The inner engine stays uninstrumented so logical query counters
        # are not double-counted — the store's own spans time it.
        if self._engine is None:
            if self._columns is not None:
                self._engine = BlockADEngine(self._columns)
            else:
                self._engine = BlockADEngine(self.rows)
                self._columns = self._engine.columns
        return self._engine

    @property
    def columns(self) -> SortedColumns:
        self._get_engine()
        return self._columns

    # ------------------------------------------------------------------
    def collect_candidates(
        self,
        query: np.ndarray,
        fetch: int,
        n0: int,
        n1: int,
        tombstones: set,
    ) -> Tuple[PartAnswers, SearchStats]:
        """This segment's live candidates for every ``n`` in ``[n0, n1]``.

        Asks the static engine for ``min(fetch, cardinality)`` answers
        per ``n``; callers over-fetch by the tombstoned rows, so
        filtering can never starve an ``n`` of its ``k`` survivors.
        """
        result = self._get_engine().frequent_k_n_match(
            query, min(self.cardinality, fetch), (n0, n1), keep_answer_sets=True
        )
        answers = answer_set_differences(
            self.rows, query, result.answer_sets, self.pids, tombstones
        )
        return answers, result.stats

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, os.PathLike]) -> str:
        """Write the segment into ``directory``, fsync'd; returns the name.

        The file is written to a temporary name and renamed into place,
        so a crash mid-write leaves an orphan temp file (cleaned on
        recovery), never a half-written segment under the real name.
        """
        directory = os.fspath(directory)
        columns = self.columns
        header = json.dumps(
            {
                "magic": SEGMENT_MAGIC,
                "version": SEGMENT_FORMAT_VERSION,
                "segment_id": self.segment_id,
                "level": self.level,
                "cardinality": self.cardinality,
                "dimensionality": self.dimensionality,
            }
        )
        final_path = os.path.join(directory, self.filename)
        tmp_path = final_path + ".tmp"
        with open(tmp_path, "wb") as handle:
            np.savez(
                handle,
                header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
                rows=self.rows,
                pids=self.pids,
                sorted_values=columns.values_matrix,
                sorted_ids=columns.ids_matrix,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, final_path)
        return self.filename

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "Segment":
        """Load a segment file, verifying header and shapes."""
        path = os.fspath(path)
        try:
            archive = np.load(path)
        except (OSError, ValueError) as error:
            raise StorageError(
                f"cannot read segment file {path!r}: {error}"
            ) from error
        try:
            required = {"header", "rows", "pids", "sorted_values", "sorted_ids"}
            missing = required - set(archive.files)
            if missing:
                raise StorageError(
                    f"{path!r} is not a repro segment file "
                    f"(missing {sorted(missing)})"
                )
            try:
                header = json.loads(bytes(archive["header"]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise StorageError(
                    f"{path!r} has a corrupt segment header"
                ) from error
            if header.get("magic") != SEGMENT_MAGIC:
                raise StorageError(f"{path!r} is not a repro segment file")
            if header.get("version") != SEGMENT_FORMAT_VERSION:
                raise StorageError(
                    f"{path!r} uses segment format version "
                    f"{header.get('version')}; this build reads version "
                    f"{SEGMENT_FORMAT_VERSION}"
                )
            rows = np.ascontiguousarray(archive["rows"], dtype=np.float64)
            pids = np.ascontiguousarray(archive["pids"], dtype=np.int64)
            c = header.get("cardinality")
            d = header.get("dimensionality")
            if rows.shape != (c, d):
                raise StorageError(
                    f"{path!r}: rows shape {rows.shape} does not match "
                    f"header ({c}, {d})"
                )
            values = np.ascontiguousarray(
                archive["sorted_values"], dtype=np.float64
            )
            ids = np.ascontiguousarray(archive["sorted_ids"], dtype=np.int64)
            if values.shape != (d, c) or ids.shape != (d, c):
                raise StorageError(
                    f"{path!r}: sorted-column shapes are inconsistent"
                )
            columns = SortedColumns.from_prebuilt(rows, values, ids)
            return cls(
                header.get("segment_id", 0),
                header.get("level", 0),
                rows,
                pids,
                columns=columns,
            )
        finally:
            archive.close()


class Memtable:
    """Append-only (rows, pids) with brute-force exact search.

    Not thread-safe on its own; the owning store's lock serialises
    every access.
    """

    def __init__(self, dimensionality: int) -> None:
        self.dimensionality = int(dimensionality)
        self.rows: List[np.ndarray] = []
        self.pids: List[int] = []
        self._pid_set: set = set()

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, pid: int) -> bool:
        return pid in self._pid_set

    @property
    def approx_bytes(self) -> int:
        """Rough resident size (coordinates only)."""
        return len(self.rows) * self.dimensionality * 8

    def add(self, coords: np.ndarray, pid: int) -> None:
        self.rows.append(coords)
        self.pids.append(pid)
        self._pid_set.add(pid)

    def get_point(self, pid: int) -> np.ndarray:
        return self.rows[self.pids.index(pid)].copy()

    def live_arrays(self, tombstones: set) -> Tuple[np.ndarray, np.ndarray]:
        """Live rows and pids in ascending-pid order, ready to freeze.

        Insertion order *is* pid order (pids are assigned monotonically
        under the store lock), so no sort is needed — asserted cheaply
        by the segment constructor's strictly-ascending check.
        """
        keep = [
            (coords, pid)
            for coords, pid in zip(self.rows, self.pids)
            if pid not in tombstones
        ]
        if not keep:
            empty = np.empty((0, self.dimensionality), dtype=np.float64)
            return empty, np.empty(0, dtype=np.int64)
        rows = np.vstack([coords for coords, _pid in keep])
        pids = np.asarray([pid for _coords, pid in keep], dtype=np.int64)
        return rows, pids

    def collect_candidates(
        self, query: np.ndarray, n0: int, n1: int, tombstones: set
    ) -> Tuple[PartAnswers, SearchStats]:
        """Every live point as a candidate for every ``n`` in ``[n0, n1]``."""
        rows, pids = self.live_arrays(tombstones)
        every = np.arange(pids.shape[0])
        answers = answer_set_differences(
            rows, query, {n: every for n in range(n0, n1 + 1)}, pids
        )
        return answers, SearchStats(
            attributes_retrieved=rows.shape[0] * self.dimensionality
        )

    def clear(self) -> None:
        self.rows = []
        self.pids = []
        self._pid_set = set()


class PartitionedStore(Observed):
    """Shared surface of a live point set held as segments + memtable.

    Subclasses own mutation and maintenance; they set ``_lock`` (an
    RLock), ``_segments``, ``_memtable``, ``_tombstones``,
    ``_dimensionality``, ``_generation``, ``_metrics`` and ``_spans``,
    and name themselves with :attr:`name` — the ``engine`` metric label
    and the prefix of the root query span.
    """

    name = ""

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def dimensionality(self) -> int:
        return self._dimensionality

    @property
    def generation(self) -> int:
        """Monotonic mutation counter.

        Two queries observing the same generation see the same live
        point set, so any result computed at generation ``g`` may be
        replayed verbatim while :attr:`generation` still equals ``g`` —
        the invariant the :mod:`repro.serve` result cache relies on.
        """
        return self._generation

    def set_metrics(self, registry) -> None:
        """Install (or remove, with ``None``) a metrics registry."""
        self._metrics = registry

    def set_spans(self, collector) -> None:
        """Install (or remove, with ``None``) a span collector."""
        self._spans = collector

    @property
    def cardinality(self) -> int:
        """Number of live (non-deleted) points.

        Every tombstone references exactly one stored row (deletes
        validate liveness, and maintenance drops tombstones together
        with their rows), so the subtraction is exact.
        """
        with self._lock:
            total = sum(s.cardinality for s in self._segments)
            return total + len(self._memtable) - len(self._tombstones)

    @property
    def tombstone_count(self) -> int:
        with self._lock:
            return len(self._tombstones)

    def __len__(self) -> int:
        return self.cardinality

    def _pid_present(self, pid: int) -> bool:
        if pid in self._memtable:
            return True
        return any(segment.contains_pid(pid) for segment in self._segments)

    def __contains__(self, pid: int) -> bool:
        with self._lock:
            if pid in self._tombstones:
                return False
            return self._pid_present(pid)

    def get_point(self, pid: int) -> np.ndarray:
        """The coordinates of a live point."""
        with self._lock:
            if pid in self._tombstones:
                raise ValidationError(f"point {pid} was deleted")
            if pid in self._memtable:
                return self._memtable.get_point(pid)
            for segment in self._segments:
                coords = segment.get_point(pid)
                if coords is not None:
                    return coords
            raise ValidationError(f"unknown point id {pid}")

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """All live points as ``(rows, pids)`` in ascending-pid order."""
        with self._lock:
            rows = [s.rows for s in self._segments]
            pids = [s.pids for s in self._segments]
            mem_rows, mem_pids = self._memtable.live_arrays(set())
            rows.append(mem_rows)
            pids.append(mem_pids)
            all_rows = np.vstack(rows)
            all_pids = np.concatenate(pids)
            if self._tombstones:
                live = ~np.isin(
                    all_pids, np.fromiter(self._tombstones, dtype=np.int64)
                )
                all_rows, all_pids = all_rows[live], all_pids[live]
            order = np.argsort(all_pids)
            return np.ascontiguousarray(all_rows[order]), all_pids[order]

    def insert_many(self, points) -> List[int]:
        """Insert several points; returns their ids."""
        array = validation.as_database_array(points)
        if array.shape[1] != self._dimensionality:
            raise ValidationError(
                f"points have {array.shape[1]} dimensions; expected "
                f"{self._dimensionality}"
            )
        with self._lock:
            return [self.insert(row) for row in array]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def k_n_match(self, query, k: int, n: int) -> MatchResult:
        """Exact k-n-match over the live points."""
        return self._search(query, k, n, None, True)

    def frequent_k_n_match(
        self, query, k: int, n_range: Tuple[int, int], keep_answer_sets: bool = True
    ) -> FrequentMatchResult:
        """Exact frequent k-n-match over the live points."""
        return self._search(query, k, None, n_range, keep_answer_sets)

    def _fetch(self, segment: Segment, k: int) -> int:
        """How many answers to ask ``segment`` for so ``k`` stay live."""
        return k + segment.dead_count(self._tombstones)

    def _search(self, query, k, n, n_range, keep_answer_sets):
        frequent = n is None
        kind = "frequent_k_n_match" if frequent else "k_n_match"
        with self._lock:
            cardinality = self.cardinality
            if cardinality == 0:
                raise EmptyDatabaseError("no live points to search")
            k = validation.validate_k(k, cardinality)
            if frequent:
                n0, n1 = validation.validate_n_range(
                    n_range, self._dimensionality
                )
                meta = dict(k=k, n0=n0, n1=n1)
            else:
                n0 = n1 = validation.validate_n(n, self._dimensionality)
                meta = dict(k=k, n=n0)
            query = validation.as_query_array(query, self._dimensionality)
            total = cardinality * self._dimensionality
            with self._observe(kind, self._dimensionality, **meta) as q:
                parts, stats = self._collect(query, k, n0, n1)
                with q.spans.span("merge"):
                    result = merge_parts(
                        parts, stats, k, (n0, n1), total, frequent,
                        keep_answer_sets,
                    )
                q.stats = result.stats
        return result

    def _collect(
        self, query: np.ndarray, k: int, n0: int, n1: int
    ) -> Tuple[List[PartAnswers], List[SearchStats]]:
        """Every part's candidates: the memtable, then each segment."""
        tombstones = self._tombstones
        spans = self._spans or NULL_SPANS
        with spans.span("memtable_scan", rows=len(self._memtable)):
            collected = [
                self._memtable.collect_candidates(query, n0, n1, tombstones)
            ]
        for segment in self._segments:
            with spans.span(
                "segment_search", segment=segment.segment_id, level=segment.level
            ):
                collected.append(
                    segment.collect_candidates(
                        query, self._fetch(segment, k), n0, n1, tombstones
                    )
                )
        parts = [answers for answers, _stats in collected]
        return parts, [stats for _answers, stats in collected]
