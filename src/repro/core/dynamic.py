"""Dynamic matching-based search: inserts and deletes, in memory.

The paper's engines assume a static, pre-sorted database.  A system a
downstream user would actually adopt needs updates, so
:class:`DynamicMatchDatabase` keeps a mutable point set in memory as a
:class:`~repro.core.partitioned.PartitionedStore` with at most one
segment:

* a **base** :class:`~repro.core.partitioned.Segment` — a static
  block-AD engine over sorted columns, rebuilt only on compaction;
* a small **buffer** (a :class:`~repro.core.partitioned.Memtable`) of
  freshly-inserted points, searched by brute force;
* a **tombstone set** of deleted point ids.

Queries are *exact* at every moment — they run the partitioned query
body shared with the durable LSM store.  When the buffer or the
tombstones outgrow ``compaction_threshold`` (a fraction of the live
size), the structure compacts stop-the-world: live rows are
consolidated into a new base segment and the sorted columns are
rebuilt once.

Point ids are stable across compactions — they are assigned at insert
time and never reused.

The structure is **thread-safe**: one reentrant lock serialises updates
and queries, so it can sit behind the threaded HTTP server
(:mod:`repro.serve`) with writers racing readers.  Every mutation bumps
a monotonic :attr:`generation` counter, which the serving layer's
result cache keys on.

Like every other facade, ``metrics=`` installs a
:class:`~repro.obs.MetricsRegistry` (queries recorded under
``engine="dynamic"``) and ``spans=`` a
:class:`~repro.obs.SpanCollector` (roots ``dynamic/k_n_match`` /
``dynamic/frequent_k_n_match`` with ``memtable_scan``,
``segment_search`` and ``merge`` phases).  The inner base engine stays
uninstrumented so logical query counters are not double-counted.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from ..errors import ValidationError
from . import validation
from .partitioned import Memtable, PartitionedStore, Segment

__all__ = ["DynamicMatchDatabase"]


class DynamicMatchDatabase(PartitionedStore):
    """Exact k-n-match search over a mutable point set."""

    name = "dynamic"

    def __init__(
        self,
        data=None,
        dimensionality: Optional[int] = None,
        compaction_threshold: float = 0.25,
        min_buffer: int = 64,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> None:
        if data is None and dimensionality is None:
            raise ValidationError(
                "provide initial data or an explicit dimensionality"
            )
        if not 0 < compaction_threshold <= 1:
            raise ValidationError(
                f"compaction_threshold must be in (0, 1]; got {compaction_threshold}"
            )
        if min_buffer < 1:
            raise ValidationError(f"min_buffer must be >= 1; got {min_buffer}")
        self.compaction_threshold = compaction_threshold
        self.min_buffer = min_buffer

        if data is not None:
            array = validation.as_database_array(data)
            if dimensionality is not None and dimensionality != array.shape[1]:
                raise ValidationError(
                    f"dimensionality {dimensionality} does not match data's "
                    f"{array.shape[1]}"
                )
            self._dimensionality = array.shape[1]
            self._set_base(array, np.arange(array.shape[0], dtype=np.int64))
            self._next_pid = array.shape[0]
        else:
            self._dimensionality = int(dimensionality)
            if self._dimensionality < 1:
                raise ValidationError(
                    f"dimensionality must be >= 1; got {self._dimensionality}"
                )
            self._segments = []
            self._next_pid = 0

        self._memtable = Memtable(self._dimensionality)
        self._tombstones: set = set()
        self.compactions = 0
        self._metrics = metrics
        self._spans = spans
        self._generation = 0
        # Reentrant: insert -> _maybe_compact -> compact re-enters, and
        # insert_many loops over insert.
        self._lock = threading.RLock()

    def _set_base(self, rows: np.ndarray, pids: np.ndarray) -> None:
        """Install ``(rows, pids)`` (ascending pids) as the base segment."""
        self._segments = [Segment(0, 0, rows, pids)] if pids.shape[0] else []

    @classmethod
    def from_snapshot(
        cls,
        rows,
        pids,
        generation: int = 0,
        **kwargs,
    ) -> "DynamicMatchDatabase":
        """Rebuild a database from a :meth:`snapshot`, resuming counters.

        ``generation`` must be at least the generation the snapshot was
        taken under — restart then resumes *past* it, so a serve-layer
        cache keyed on (generation, query) can never alias a pre-restart
        entry onto the rebuilt store.  Point ids resume after the
        largest snapshotted id, preserving the never-reused contract.
        """
        rows = np.asarray(rows, dtype=np.float64)
        pids = np.asarray(pids, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] != pids.shape[0]:
            raise ValidationError(
                f"snapshot rows {rows.shape} do not match {pids.shape[0]} pids"
            )
        if generation < 0:
            raise ValidationError(
                f"generation must be >= 0; got {generation}"
            )
        order = np.argsort(pids)
        rows = np.ascontiguousarray(rows[order])
        pids = pids[order]
        if pids.shape[0] and np.any(np.diff(pids) <= 0):
            raise ValidationError("snapshot pids must be unique")
        db = cls(
            data=rows if rows.shape[0] else None,
            dimensionality=rows.shape[1],
            **kwargs,
        )
        db._set_base(rows, pids)
        db._next_pid = int(pids[-1]) + 1 if pids.shape[0] else 0
        # Resume one past the snapshot generation: the rebuilt store is a
        # distinct mutation epoch even before its first write.
        db._generation = int(generation) + 1
        return db

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def buffer_size(self) -> int:
        return len(self._memtable)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, point) -> int:
        """Insert one point; returns its (stable) id."""
        coords = validation.as_query_array(point, self._dimensionality)
        with self._lock:
            pid = self._next_pid
            self._next_pid += 1
            self._memtable.add(coords, pid)
            self._generation += 1
            self._maybe_compact()
        return pid

    def delete(self, pid: int) -> None:
        """Delete a live point by id."""
        with self._lock:
            if pid not in self:
                raise ValidationError(
                    f"point {pid} does not exist or was deleted"
                )
            self._tombstones.add(pid)
            self._generation += 1
            self._maybe_compact()

    def compact(self) -> None:
        """Consolidate live points into a fresh base segment."""
        with self._lock:
            self._set_base(*self.snapshot())
            self._memtable.clear()
            self._tombstones = set()
            self.compactions += 1
            self._generation += 1

    def _maybe_compact(self) -> None:
        churn = len(self._memtable) + len(self._tombstones)
        threshold = max(
            self.min_buffer, int(self.compaction_threshold * max(1, self.cardinality))
        )
        if churn > threshold:
            self.compact()

    def _fetch(self, segment: Segment, k: int) -> int:
        # The base over-fetches by the whole tombstone set, buffered
        # deletes included, rather than by its own dead rows; the
        # attribute counts this store reports follow from that choice.
        return k + len(self._tombstones)
