"""Page-level storage simulator.

A :class:`Pager` is a flat array of fixed-size pages with an access
recorder.  Its single job is to make the disk engines honest: every page
an engine touches goes through :meth:`Pager.read`, which classifies the
access as *sequential* (the page immediately follows the last page read —
one disk head, no seek) or *random* (anything else, including the first
read after a :meth:`reset`).  The classification feeds
:class:`~repro.storage.diskmodel.DiskModel`.

Pages hold real bytes.  Engines that want zero-copy numpy views keep
their arrays separately and use :class:`PageAccessRecorder` alone; the
byte-backed :class:`Pager` is used by the column files and heap files so
that layout bugs (records straddling pages, bad page arithmetic) cannot
hide.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import PageOverflowError, StorageError
from ..obs.instrument import observe_page_read
from .diskmodel import PAGE_SIZE

__all__ = ["PageAccessRecorder", "Pager"]


class PageAccessRecorder:
    """Counts page reads, classifying sequential vs random access.

    Classification is per *stream*: every reader (a column walk, a heap
    scan, an inverted-list fetch) names the stream it reads under, and an
    access is sequential when it lands on a page adjacent to the stream's
    previous page — the behaviour of per-file read-ahead buffers, which
    is how a real system serves several concurrent scans without turning
    them all into seeks.  Reverse-adjacent reads (backward walk of a
    sorted column) also count as sequential: the buffer pool read-behind
    case.  Everything else — the first access of a stream, or any jump —
    is a seek, i.e. random.

    With a :class:`~repro.obs.MetricsRegistry` installed (``metrics=``),
    every counted read also increments ``repro_pager_reads_total`` with
    a ``pattern`` label; with no registry the extra cost is one call to
    a helper that returns at once.
    """

    def __init__(self, metrics: Optional[object] = None) -> None:
        self.sequential_reads = 0
        self.random_reads = 0
        self.metrics = metrics
        self._last_page: dict = {}

    @property
    def total_reads(self) -> int:
        return self.sequential_reads + self.random_reads

    def record(self, page_id: int, stream: str = "default") -> None:
        """Record one read of ``page_id`` under ``stream``.

        Re-reading the stream's previous page is free: it is still in
        that stream's buffer.  (The engines exploit this when many
        consecutive records share a page.)
        """
        last = self._last_page.get(stream)
        if last is not None and page_id == last:
            return
        sequential = last is not None and abs(page_id - last) == 1
        if sequential:
            self.sequential_reads += 1
        else:
            self.random_reads += 1
        self._last_page[stream] = page_id
        observe_page_read(self.metrics, sequential)

    def reset(self) -> None:
        """Forget all stream positions and zero the counters."""
        self.sequential_reads = 0
        self.random_reads = 0
        self._last_page = {}

    def forget_streams(self) -> None:
        """Forget stream positions but keep the counters.

        Disk engines call this at query start so every query is measured
        cold — without it, a repeated query would ride the previous
        query's buffer positions and look cheaper than it is.
        """
        self._last_page = {}


class Pager:
    """An in-memory array of fixed-size pages with access accounting.

    ``metrics=`` installs a :class:`~repro.obs.MetricsRegistry` on the
    access recorder so page reads surface as pager-level counters.
    """

    def __init__(
        self, page_size: int = PAGE_SIZE, metrics: Optional[object] = None
    ) -> None:
        if page_size <= 0:
            raise StorageError(f"page size must be positive; got {page_size}")
        self.page_size = page_size
        self._pages: List[bytes] = []
        self.recorder = PageAccessRecorder(metrics=metrics)

    @property
    def metrics(self):
        """The installed :class:`~repro.obs.MetricsRegistry`, or ``None``."""
        return self.recorder.metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self.recorder.metrics = registry

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def allocate(self, payload: bytes = b"") -> int:
        """Append a new page initialised with ``payload``; return its id.

        Pages are fixed-size: short payloads are zero-padded, oversized
        payloads raise :class:`PageOverflowError`.
        """
        if len(payload) > self.page_size:
            raise PageOverflowError(
                f"payload of {len(payload)} bytes exceeds page size "
                f"{self.page_size}"
            )
        page = payload + b"\x00" * (self.page_size - len(payload))
        self._pages.append(page)
        return len(self._pages) - 1

    def allocate_run(self, payload: bytes) -> range:
        """Split ``payload`` over as many contiguous pages as needed."""
        first = len(self._pages)
        for offset in range(0, max(len(payload), 1), self.page_size):
            self.allocate(payload[offset : offset + self.page_size])
        return range(first, len(self._pages))

    def read(self, page_id: int, stream: str = "default") -> bytes:
        """Read one page, recording the access under ``stream``."""
        if not 0 <= page_id < len(self._pages):
            raise StorageError(
                f"page {page_id} out of range [0, {len(self._pages)})"
            )
        self.recorder.record(page_id, stream)
        return self._pages[page_id]

    def write(self, page_id: int, payload: bytes) -> None:
        """Overwrite one page (no write-cost accounting: the paper's
        workload is read-only after the build phase)."""
        if not 0 <= page_id < len(self._pages):
            raise StorageError(
                f"page {page_id} out of range [0, {len(self._pages)})"
            )
        if len(payload) > self.page_size:
            raise PageOverflowError(
                f"payload of {len(payload)} bytes exceeds page size "
                f"{self.page_size}"
            )
        self._pages[page_id] = payload + b"\x00" * (self.page_size - len(payload))

    def reset_counters(self) -> None:
        self.recorder.reset()
