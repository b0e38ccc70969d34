"""The LSM memtable: the small mutable tier in front of the segments.

Freshly inserted points live here until a flush freezes them into an L0
segment.  The class lives in :mod:`repro.core.partitioned` — the dynamic
store's insert buffer is the same memtable — and is re-exported here
under its storage-tier name.
"""

from ..core.partitioned import Memtable

__all__ = ["Memtable"]
