"""Fault injection for the storage layer.

A :class:`FaultyPager` behaves exactly like a :class:`Pager` until a
scheduled fault fires: either a hard read error (:class:`StorageError`,
modelling a failed sector) or a silent single-bit corruption of the
returned page (modelling the uglier failure mode).  Tests use it to
verify that the engines neither swallow hard errors nor — in the
checked paths such as :mod:`repro.io` loading — accept corrupted bytes
silently.

A :class:`FaultSchedule` models the *write-side* failures the durable
store (:mod:`repro.lsm`) must survive: a process death at a named
protocol point (between writing a segment and swapping the manifest,
say) and a torn write that persists only a prefix of a WAL record.
Components that support injection hold an optional schedule and call
:meth:`FaultSchedule.reached` at their crash points — ``None`` means no
check at all.
An injected crash raises :class:`InjectedCrashError`; the test then
abandons the broken object and re-opens the store from disk, which must
recover to a state bit-identical to the naive oracle over the durable
mutations.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..errors import StorageError
from ..obs.instrument import observe_pager_fault
from .pager import Pager

__all__ = ["FaultyPager", "FaultSchedule", "InjectedCrashError"]


class InjectedCrashError(StorageError):
    """A scheduled crash fired: the process is considered dead here.

    Deliberately *not* a :class:`ValidationError` — recovery code and
    tests must treat it like a power cut, never catch-and-continue on
    the broken in-memory object.
    """


class FaultSchedule:
    """Deterministic crash scheduling for durability tests.

    ``crash_points`` are protocol point names (see the ``fault:``
    comments in :mod:`repro.lsm.store` for the vocabulary); the first
    time instrumented code reaches one, :class:`InjectedCrashError` is
    raised and the point is recorded in :attr:`fired`.

    ``wal_torn_after_bytes`` schedules a torn WAL append: the next
    writes persist normally until the byte budget runs out, then the
    record that crosses the budget is persisted only up to it and the
    writer crashes — exactly the on-disk shape a power cut mid-write
    leaves behind.
    """

    def __init__(
        self,
        crash_points: Iterable[str] = (),
        wal_torn_after_bytes: Optional[int] = None,
    ) -> None:
        self.crash_points: Set[str] = set(crash_points)
        if wal_torn_after_bytes is not None and wal_torn_after_bytes < 0:
            raise ValueError(
                f"wal_torn_after_bytes must be >= 0; got {wal_torn_after_bytes}"
            )
        self.wal_torn_after_bytes = wal_torn_after_bytes
        self.fired: List[str] = []

    def reached(self, point: str) -> None:
        """Crash if ``point`` is scheduled; otherwise a no-op."""
        if point in self.crash_points:
            self.crash_points.discard(point)
            self.fired.append(point)
            raise InjectedCrashError(f"injected crash at {point!r}")

    def wal_write(self, payload: bytes) -> Tuple[bytes, bool]:
        """The prefix of ``payload`` that persists, and whether it tore.

        Returns ``(payload, False)`` while the byte budget holds (or no
        tear is scheduled).  Once a write crosses the budget, returns
        ``(prefix, True)``: the caller must persist exactly the prefix
        and then crash with :class:`InjectedCrashError`.
        """
        if self.wal_torn_after_bytes is None:
            return payload, False
        if len(payload) <= self.wal_torn_after_bytes:
            self.wal_torn_after_bytes -= len(payload)
            return payload, False
        prefix = payload[: self.wal_torn_after_bytes]
        self.wal_torn_after_bytes = None
        self.fired.append("wal:torn-write")
        return prefix, True


class FaultyPager(Pager):
    """A pager with scheduled read faults.

    Counter semantics (every :meth:`read` call falls into exactly one
    outcome; ``reads_attempted`` counts them all):

    ``reads_attempted``
        Every call to :meth:`read`, whether it succeeded, failed hard,
        or returned corrupted bytes.
    ``reads_served``
        Calls that returned a payload — clean *or* corrupted.  Always
        ``reads_attempted - faults_hard``.
    ``corruptions_served``
        The subset of ``reads_served`` whose payload was silently
        corrupted, so clean reads are ``reads_served -
        corruptions_served``.
    ``faults_fired``
        Every injected fault, hard failures and corruptions alike.

    ``fail_after_reads=N`` is indexed on ``reads_attempted``: the first
    ``N`` read *attempts* proceed (even if some of them fail because of
    ``fail_pages``) and attempt ``N+1`` raises.  Earlier versions
    indexed it on served reads only, so a preceding ``fail_pages`` hit
    silently pushed the device failure to a later read index.
    """

    def __init__(
        self,
        page_size: int = 4096,
        fail_pages: Optional[Iterable[int]] = None,
        corrupt_pages: Optional[Iterable[int]] = None,
        fail_after_reads: Optional[int] = None,
        metrics: Optional[object] = None,
    ) -> None:
        super().__init__(page_size, metrics=metrics)
        self.fail_pages: Set[int] = set(fail_pages or ())
        self.corrupt_pages: Set[int] = set(corrupt_pages or ())
        self.fail_after_reads = fail_after_reads
        self.reads_attempted = 0
        self.reads_served = 0
        self.corruptions_served = 0
        self.faults_fired = 0

    def read(self, page_id: int, stream: str = "default") -> bytes:
        self.reads_attempted += 1
        if (
            self.fail_after_reads is not None
            and self.reads_attempted > self.fail_after_reads
        ):
            self._fire_fault("hard")
            raise StorageError(
                f"injected fault: device failed after "
                f"{self.fail_after_reads} reads"
            )
        if page_id in self.fail_pages:
            self._fire_fault("hard")
            raise StorageError(f"injected fault: unreadable page {page_id}")
        payload = super().read(page_id, stream)
        self.reads_served += 1
        if page_id in self.corrupt_pages:
            self._fire_fault("corruption")
            self.corruptions_served += 1
            if not payload:
                return payload
            # flip the lowest bit of the first byte: a silent corruption
            corrupted = bytes([payload[0] ^ 0x01]) + payload[1:]
            return corrupted
        return payload

    def _fire_fault(self, kind: str) -> None:
        self.faults_fired += 1
        observe_pager_fault(self.metrics, kind)
