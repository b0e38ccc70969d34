"""The durable LSM store: exact k-n-match over a crash-surviving point set.

:class:`LsmMatchDatabase` keeps its live points as a
:class:`~repro.core.partitioned.PartitionedStore` — a memtable, leveled
immutable segments and a tombstone set — and adds durability and
background maintenance around it:

* a :class:`~repro.lsm.memtable.Memtable` absorbs inserts;
* flushes freeze it into leveled immutable
  :class:`~repro.lsm.segment.Segment` files (each a static block-AD
  database over prebuilt sorted columns);
* every mutation is WAL-logged (:mod:`repro.lsm.wal`) *before* it is
  applied, so :meth:`recover` rebuilds the exact live set after a crash
  — including a torn WAL tail, which is truncated to the last intact
  record;
* compaction merges an overflowing level into the next one on a
  background worker (:class:`~repro.lsm.compactor.Compactor`) or
  synchronously via :meth:`compact`, publishing the new level through a
  single list swap under the store lock — readers are never blocked by
  the merge itself.

**Exactness.**  Queries run the shared partitioned body
(:meth:`~repro.core.partitioned.PartitionedStore.k_n_match`): each
segment over-fetches enough to survive its own tombstones, and every
part's candidates merge per ``n`` in :mod:`repro.core.merge` —
bit-identical to the naive oracle over the live set at every instant,
mid-compaction and after recovery included.

**Durability protocol.**  The directory holds ``MANIFEST.json`` (atomic
tmp + rename + fsync), ``wal.log`` and ``segments/seg-*.npz``.  The
manifest's ``persisted_generation`` is the watermark of durable state:
WAL replay applies only records with a strictly larger generation, so a
crash between flushing a segment and resetting the log cannot
double-apply the flushed prefix.  See ``docs/durability.md`` for the
full protocol and crash-window argument.

**Generations.**  Every mutation bumps the monotonic :attr:`generation`
the serve-layer result cache keys on.  Generations are reserved in
durable blocks (hi-lo): the manifest's ``generation_reserved`` always
bounds every generation ever handed out, and recovery restarts *past*
the old reservation — so a generation observed after a crash is
strictly greater than any observed before it, and a stale cache can
never alias pre-crash entries onto the recovered store.  Compaction
does **not** bump the generation: it preserves the live set exactly, so
every cached answer keyed at the current generation stays correct.

Thread-safety: one RLock serialises mutations and queries; compaction
holds it only to snapshot its inputs and to swap in its output.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core import validation
from ..core.partitioned import PartitionedStore
from ..errors import StorageError, ValidationError
from ..obs.instrument import (
    observe_lsm_compaction,
    observe_lsm_flush,
    observe_lsm_mutation,
    update_lsm_gauges,
)
from ..obs.spans import NULL_SPANS
from ..storage.fault import FaultSchedule
from .compactor import Compactor
from .memtable import Memtable
from .segment import Segment
from .wal import OP_DELETE, OP_INSERT, WalWriter, read_wal, truncate_wal

__all__ = ["LsmMatchDatabase", "MANIFEST_NAME", "WAL_NAME", "SEGMENT_DIR"]

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
SEGMENT_DIR = "segments"

_MANIFEST_MAGIC = "repro-lsm"
_MANIFEST_VERSION = 1


class LsmMatchDatabase(PartitionedStore):
    """Exact k-n-match over a durable, mutable, leveled point set.

    :attr:`generation` additionally survives crashes: no generation
    observed after :meth:`recover` was ever observable before the crash.
    """

    name = "lsm"

    def __init__(
        self,
        path: Union[str, os.PathLike],
        dimensionality: Optional[int] = None,
        memtable_flush_rows: int = 256,
        level_fanout: int = 4,
        wal_sync_interval: int = 32,
        generation_reserve: int = 256,
        auto_compact: bool = True,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
        fault: Optional[FaultSchedule] = None,
    ) -> None:
        if memtable_flush_rows < 1:
            raise ValidationError(
                f"memtable_flush_rows must be >= 1; got {memtable_flush_rows}"
            )
        if level_fanout < 2:
            raise ValidationError(
                f"level_fanout must be >= 2; got {level_fanout}"
            )
        if wal_sync_interval < 1:
            raise ValidationError(
                f"wal_sync_interval must be >= 1; got {wal_sync_interval}"
            )
        if generation_reserve < 1:
            raise ValidationError(
                f"generation_reserve must be >= 1; got {generation_reserve}"
            )
        self.directory = os.fspath(path)
        self.memtable_flush_rows = memtable_flush_rows
        self.level_fanout = level_fanout
        self.wal_sync_interval = wal_sync_interval
        self.generation_reserve = generation_reserve
        self._metrics = metrics
        self._spans = spans
        self._fault = fault
        self._lock = threading.RLock()
        # Serialises compactions (manual vs background) without holding
        # the store lock across a merge.
        self._compact_lock = threading.Lock()

        self._segments: List[Segment] = []
        self._tombstones: set = set()
        self._next_pid = 0
        self._next_segment_id = 0
        self._generation = 0
        self._generation_reserved = 0
        self._persisted_generation = 0
        self.compactions = 0
        self.flushes = 0
        self.user_bytes_inserted = 0
        self.segment_bytes_written = 0
        self.last_compaction: Optional[dict] = None
        self.recovered_torn_wal = False

        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            self._open_existing(dimensionality)
        else:
            if dimensionality is None:
                raise StorageError(
                    f"{self.directory!r} has no manifest; pass dimensionality "
                    f"to create a new store"
                )
            self._create_fresh(int(dimensionality))

        self._compactor: Optional[Compactor] = None
        if auto_compact:
            self._compactor = Compactor(self)
            self._compactor.start()

    # ------------------------------------------------------------------
    # open / create / recover
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls, path: Union[str, os.PathLike], **kwargs
    ) -> "LsmMatchDatabase":
        """Open an existing store directory, replaying its WAL.

        Exactly the constructor without a ``dimensionality`` — a missing
        manifest is an error rather than an invitation to create.
        """
        kwargs.pop("dimensionality", None)
        return cls(path, dimensionality=None, **kwargs)

    def _create_fresh(self, dimensionality: int) -> None:
        if dimensionality < 1:
            raise ValidationError(
                f"dimensionality must be >= 1; got {dimensionality}"
            )
        self._dimensionality = dimensionality
        os.makedirs(self.directory, exist_ok=True)
        os.makedirs(os.path.join(self.directory, SEGMENT_DIR), exist_ok=True)
        self._memtable = Memtable(dimensionality)
        self._generation_reserved = self.generation_reserve
        self._write_manifest()
        self._wal = WalWriter(self._wal_path, fault=self._fault)

    def _open_existing(self, dimensionality: Optional[int]) -> None:
        manifest = self._read_manifest()
        stored_dim = manifest["dimensionality"]
        if dimensionality is not None and dimensionality != stored_dim:
            raise ValidationError(
                f"dimensionality {dimensionality} does not match the "
                f"store's {stored_dim}"
            )
        self._dimensionality = int(stored_dim)
        self._memtable = Memtable(self._dimensionality)
        self._next_pid = int(manifest["next_pid"])
        self._next_segment_id = int(manifest["next_segment_id"])
        self._persisted_generation = int(manifest["persisted_generation"])
        self._tombstones = set(int(t) for t in manifest["tombstones"])
        self.compactions = int(manifest.get("compactions", 0))
        self.flushes = int(manifest.get("flushes", 0))
        self.user_bytes_inserted = int(manifest.get("user_bytes_inserted", 0))
        self.segment_bytes_written = int(
            manifest.get("segment_bytes_written", 0)
        )
        self.last_compaction = manifest.get("last_compaction")

        segment_dir = os.path.join(self.directory, SEGMENT_DIR)
        os.makedirs(segment_dir, exist_ok=True)
        referenced = set()
        for entry in manifest["segments"]:
            filename = entry["file"]
            referenced.add(filename)
            segment_path = os.path.join(segment_dir, filename)
            segment = Segment.load(segment_path)
            if segment.segment_id != entry["segment_id"]:
                raise StorageError(
                    f"{segment_path!r}: segment id {segment.segment_id} does "
                    f"not match manifest entry {entry['segment_id']}"
                )
            segment.level = int(entry["level"])
            self._segments.append(segment)
        # Orphans: segment files written by a flush/compaction that died
        # before its manifest swap, and half-written temporaries.  The
        # manifest never referenced them, so deleting them loses nothing.
        for name in sorted(os.listdir(segment_dir)):
            if name not in referenced:
                os.remove(os.path.join(segment_dir, name))

        # WAL replay: only records past the durable watermark, and only
        # mutations that still make sense against the manifest state
        # (a delete for a row a pre-crash compaction already dropped is
        # a no-op, not a phantom tombstone).
        if os.path.exists(self._wal_path):
            scan = read_wal(self._wal_path)
            if scan.torn:
                truncate_wal(self._wal_path, scan.valid_bytes)
                self.recovered_torn_wal = True
            max_replayed_pid = -1
            for record in scan.records:
                if record.generation <= self._persisted_generation:
                    continue
                if record.op == OP_INSERT:
                    if record.coords.shape[0] != self._dimensionality:
                        raise StorageError(
                            f"WAL insert for pid {record.pid} has "
                            f"{record.coords.shape[0]} dimensions; the store "
                            f"has {self._dimensionality}"
                        )
                    if not self._pid_present(record.pid):
                        self._memtable.add(
                            record.coords.astype(np.float64), record.pid
                        )
                    max_replayed_pid = max(max_replayed_pid, record.pid)
                elif record.op == OP_DELETE:
                    if (
                        self._pid_present(record.pid)
                        and record.pid not in self._tombstones
                    ):
                        self._tombstones.add(record.pid)
            self._next_pid = max(self._next_pid, max_replayed_pid + 1)

        # Hi-lo generation restart: everything handed out before the
        # crash was <= the durable reservation, so starting past it
        # keeps the generation strictly monotonic across the crash.
        old_reserved = int(manifest["generation_reserved"])
        self._generation = old_reserved + 1
        self._generation_reserved = self._generation + self.generation_reserve
        self._write_manifest()
        self._wal = WalWriter(self._wal_path, fault=self._fault)

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    @property
    def _wal_path(self) -> str:
        return os.path.join(self.directory, WAL_NAME)

    def _read_manifest(self) -> dict:
        path = os.path.join(self.directory, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise StorageError(
                f"cannot read LSM manifest {path!r}: {error}"
            ) from error
        if manifest.get("magic") != _MANIFEST_MAGIC:
            raise StorageError(f"{path!r} is not a repro LSM manifest")
        if manifest.get("version") != _MANIFEST_VERSION:
            raise StorageError(
                f"{path!r} uses manifest version {manifest.get('version')}; "
                f"this build reads version {_MANIFEST_VERSION}"
            )
        return manifest

    def _write_manifest(self) -> None:
        manifest = {
            "magic": _MANIFEST_MAGIC,
            "version": _MANIFEST_VERSION,
            "dimensionality": self._dimensionality,
            "next_pid": self._next_pid,
            "next_segment_id": self._next_segment_id,
            "persisted_generation": self._persisted_generation,
            "generation_reserved": self._generation_reserved,
            "tombstones": sorted(int(t) for t in self._tombstones),
            "segments": [
                {
                    "segment_id": segment.segment_id,
                    "level": segment.level,
                    "file": segment.filename,
                    "cardinality": segment.cardinality,
                }
                for segment in self._segments
            ],
            "compactions": self.compactions,
            "flushes": self.flushes,
            "user_bytes_inserted": self.user_bytes_inserted,
            "segment_bytes_written": self.segment_bytes_written,
            "last_compaction": self.last_compaction,
            "wal": WAL_NAME,
        }
        path = os.path.join(self.directory, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True, indent=1)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        directory_fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def memtable_size(self) -> int:
        with self._lock:
            return len(self._memtable)

    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def wal_bytes(self) -> int:
        return self._wal.size_bytes

    @property
    def write_amplification(self) -> float:
        """Segment bytes written per byte of user data inserted."""
        with self._lock:
            if self.user_bytes_inserted == 0:
                return 0.0
            return self.segment_bytes_written / self.user_bytes_inserted

    def level_layout(self) -> List[dict]:
        """Per-level segment layout (used by ``repro lsm-info``)."""
        with self._lock:
            if self._segments:
                max_level = max(s.level for s in self._segments)
            else:
                max_level = -1
            tombstones = set(self._tombstones)
            layout = []
            for level in range(max_level + 1):
                members = [s for s in self._segments if s.level == level]
                layout.append(
                    {
                        "level": level,
                        "segments": len(members),
                        "rows": sum(s.cardinality for s in members),
                        "dead_rows": sum(
                            s.dead_count(tombstones) for s in members
                        ),
                        "segment_ids": sorted(s.segment_id for s in members),
                    }
                )
            return layout

    def info(self) -> dict:
        """A JSON-friendly status summary of the whole store."""
        with self._lock:
            return {
                "path": self.directory,
                "dimensionality": self._dimensionality,
                "cardinality": self.cardinality,
                "memtable_rows": len(self._memtable),
                "tombstones": len(self._tombstones),
                "segments": len(self._segments),
                "levels": self.level_layout(),
                "generation": self._generation,
                "persisted_generation": self._persisted_generation,
                "wal_bytes": self._wal.size_bytes,
                "flushes": self.flushes,
                "compactions": self.compactions,
                "write_amplification": self.write_amplification,
                "last_compaction": self.last_compaction,
            }

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _next_generation(self) -> int:
        generation = self._generation + 1
        if generation > self._generation_reserved:
            # Make the reservation durable *before* the generation can
            # appear in a WAL record or a response header.
            self._generation_reserved = generation + self.generation_reserve
            self._write_manifest()
        return generation

    def insert(self, point) -> int:
        """Insert one point; returns its (stable) id.  WAL-logged first."""
        coords = validation.as_query_array(point, self._dimensionality)
        spans = self._spans or NULL_SPANS
        started = time.perf_counter()
        with self._lock:
            with spans.span("lsm/insert"):
                wal_bytes = self._apply_insert(coords)
            pid = self._next_pid - 1
            self._maybe_flush()
        observe_lsm_mutation(
            self._metrics, "insert", wal_bytes, time.perf_counter() - started
        )
        update_lsm_gauges(self._metrics, self)
        return pid

    def _apply_insert(self, coords: np.ndarray) -> int:
        pid = self._next_pid
        generation = self._next_generation()
        spans = self._spans or NULL_SPANS
        with spans.span("wal_append", pid=pid):
            wal_bytes = self._wal.append(OP_INSERT, generation, pid, coords)
        if self._wal.unsynced >= self.wal_sync_interval:
            self._wal.sync()
        if self._fault is not None:
            self._fault.reached("mutate:after-wal")
        self._next_pid = pid + 1
        self._memtable.add(coords, pid)
        self._generation = generation
        self.user_bytes_inserted += coords.shape[0] * 8
        return wal_bytes

    def delete(self, pid: int) -> None:
        """Delete a live point by id.  WAL-logged first."""
        spans = self._spans or NULL_SPANS
        started = time.perf_counter()
        with self._lock:
            if pid not in self:
                raise ValidationError(
                    f"point {pid} does not exist or was deleted"
                )
            with spans.span("lsm/delete"):
                wal_bytes = self._apply_delete(pid)
            self._maybe_flush()
        observe_lsm_mutation(
            self._metrics, "delete", wal_bytes, time.perf_counter() - started
        )
        update_lsm_gauges(self._metrics, self)

    def _apply_delete(self, pid: int) -> int:
        generation = self._next_generation()
        spans = self._spans or NULL_SPANS
        with spans.span("wal_append", pid=pid):
            wal_bytes = self._wal.append(OP_DELETE, generation, pid)
        if self._wal.unsynced >= self.wal_sync_interval:
            self._wal.sync()
        if self._fault is not None:
            self._fault.reached("mutate:after-wal")
        self._tombstones.add(pid)
        self._generation = generation
        return wal_bytes

    # ------------------------------------------------------------------
    # flush
    # ------------------------------------------------------------------
    def _maybe_flush(self) -> None:
        if len(self._memtable) >= self.memtable_flush_rows:
            self.flush()

    def flush(self) -> bool:
        """Freeze the memtable into an L0 segment and reset the WAL.

        Returns whether anything was flushed.  Crash-safe at every
        point: the segment is fsync'd before the manifest references
        it, the manifest's ``persisted_generation`` watermark makes a
        not-yet-reset WAL replay idempotent, and an orphaned segment
        file from a death before the manifest write is cleaned up on
        recovery.
        """
        spans = self._spans or NULL_SPANS
        started = time.perf_counter()
        with self._lock:
            if len(self._memtable) == 0 and self._wal.appended == 0:
                return False
            with spans.span("flush", rows=len(self._memtable)):
                flushed_rows, bytes_written = self._flush_locked()
        observe_lsm_flush(
            self._metrics,
            flushed_rows,
            bytes_written,
            time.perf_counter() - started,
        )
        update_lsm_gauges(self._metrics, self)
        if self._compactor is not None:
            self._compactor.wake()
        return True

    def _flush_locked(self) -> Tuple[int, int]:
        rows, pids = self._memtable.live_arrays(self._tombstones)
        if self._fault is not None:
            self._fault.reached("flush:before-segment")
        bytes_written = 0
        if rows.shape[0]:
            segment = Segment(self._next_segment_id, 0, rows, pids)
            self._next_segment_id += 1
            filename = segment.save(os.path.join(self.directory, SEGMENT_DIR))
            bytes_written = os.path.getsize(
                os.path.join(self.directory, SEGMENT_DIR, filename)
            )
            self.segment_bytes_written += bytes_written
            self._segments.append(segment)
        # Durability order: WAL synced, then the manifest that both
        # references the new segment and advances the replay watermark.
        self._wal.sync()
        if self._fault is not None:
            self._fault.reached("flush:before-manifest")
        self._memtable.clear()
        self._tombstones = {
            t
            for t in self._tombstones
            if any(s.contains_pid(t) for s in self._segments)
        }
        self._persisted_generation = self._generation
        self.flushes += 1
        self._write_manifest()
        if self._fault is not None:
            self._fault.reached("flush:before-wal-reset")
        self._reset_wal()
        return int(rows.shape[0]), bytes_written

    def _reset_wal(self) -> None:
        self._wal.close()
        tmp = self._wal_path + ".tmp"
        fresh = WalWriter(tmp)
        fresh.close()
        os.replace(tmp, self._wal_path)
        self._wal = WalWriter(self._wal_path, fault=self._fault)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _overflowing_level(self) -> Optional[int]:
        counts: Dict[int, int] = {}
        for segment in self._segments:
            counts[segment.level] = counts.get(segment.level, 0) + 1
        for level in sorted(counts):
            if counts[level] > self.level_fanout:
                return level
        return None

    def compact_once(self) -> bool:
        """Merge one overflowing level into the next; returns whether it did.

        The store lock is held only to snapshot the victims and to swap
        in the merged segment — the merge itself (concatenate, filter
        tombstones, rebuild sorted columns, fsync the file) runs
        unlocked, so readers and writers proceed concurrently.
        Tombstones added *during* the merge are preserved: the merge
        drops only the snapshot's tombstones, and the swap re-derives
        which tombstones still reference a stored row.
        """
        spans = self._spans or NULL_SPANS
        with self._compact_lock:
            started = time.perf_counter()
            with self._lock:
                level = self._overflowing_level()
                if level is None:
                    return False
                victims = [s for s in self._segments if s.level == level]
                tombstone_snapshot = set(self._tombstones)
                segment_id = self._next_segment_id
                self._next_segment_id += 1
            with spans.span("compact", level=level, segments=len(victims)):
                rows_in, rows_out, bytes_written = self._merge_level(
                    level, victims, tombstone_snapshot, segment_id
                )
            seconds = time.perf_counter() - started
            with self._lock:
                self.last_compaction = {
                    "level": level,
                    "segments_merged": len(victims),
                    "rows_in": rows_in,
                    "rows_out": rows_out,
                    "seconds": seconds,
                    "at_generation": self._generation,
                }
                # The swap's manifest predates this record; rewrite so
                # `repro lsm-info` sees the stats after a reopen.
                self._write_manifest()
        observe_lsm_compaction(
            self._metrics,
            level,
            len(victims),
            rows_in,
            rows_out,
            seconds,
            bytes_written,
        )
        update_lsm_gauges(self._metrics, self)
        return True

    def _merge_level(
        self,
        level: int,
        victims: List[Segment],
        tombstone_snapshot: set,
        segment_id: int,
    ) -> Tuple[int, int, int]:
        # Unlocked merge: victims are immutable and stay published, so
        # concurrent queries keep answering over the old level.
        rows = np.vstack([s.rows for s in victims])
        pids = np.concatenate([s.pids for s in victims])
        rows_in = int(pids.shape[0])
        if tombstone_snapshot:
            live = ~np.isin(
                pids, np.fromiter(tombstone_snapshot, dtype=np.int64)
            )
            rows, pids = rows[live], pids[live]
        order = np.argsort(pids)
        rows = np.ascontiguousarray(rows[order])
        pids = pids[order]

        merged: Optional[Segment] = None
        bytes_written = 0
        if pids.shape[0]:
            merged = Segment(segment_id, level + 1, rows, pids)
            merged.save(os.path.join(self.directory, SEGMENT_DIR))
            bytes_written = os.path.getsize(
                os.path.join(self.directory, SEGMENT_DIR, merged.filename)
            )
        if self._fault is not None:
            self._fault.reached("compact:after-segment")

        victim_ids = {s.segment_id for s in victims}
        with self._lock:
            # The swap: one list replacement under the lock, then the
            # manifest.  Readers blocked only for this instant.
            self._segments = [
                s for s in self._segments if s.segment_id not in victim_ids
            ]
            if merged is not None:
                self._segments.append(merged)
            self.segment_bytes_written += bytes_written
            self._tombstones = {
                t
                for t in self._tombstones
                if t in self._memtable
                or any(s.contains_pid(t) for s in self._segments)
            }
            self.compactions += 1
            if self._fault is not None:
                self._fault.reached("compact:before-manifest")
            self._write_manifest()
        # Old files are unreferenced now; delete outside the lock.
        for victim in victims:
            path = os.path.join(self.directory, SEGMENT_DIR, victim.filename)
            if os.path.exists(path):
                os.remove(path)
        return rows_in, int(pids.shape[0]), bytes_written

    def compact(self) -> int:
        """Compact synchronously until no level overflows; returns rounds."""
        rounds = 0
        while self.compact_once():
            rounds += 1
        return rounds

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the compactor, sync the WAL, release file handles."""
        if self._compactor is not None:
            self._compactor.stop()
            self._compactor = None
        with self._lock:
            if self._wal.unsynced:
                self._wal.sync()
            self._wal.close()

    def __enter__(self) -> "LsmMatchDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
