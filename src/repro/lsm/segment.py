"""Immutable LSM segments: the sorted runs flushes and compactions write.

A segment is the durable unit of the store: a frozen ``(rows, pids)``
pair with prebuilt sorted columns, written once and never modified.
The class lives in :mod:`repro.core.partitioned` — the dynamic store
holds its base as the same in-memory segment — and is re-exported here
under its storage-tier name.
"""

from ..core.partitioned import SEGMENT_FORMAT_VERSION, SEGMENT_MAGIC, Segment

__all__ = ["Segment", "SEGMENT_MAGIC", "SEGMENT_FORMAT_VERSION"]
