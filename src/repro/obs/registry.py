"""Metrics primitives: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` holds named metric *families*; a family plus a
set of label values identifies one time series (a :class:`Counter`,
:class:`Gauge` or :class:`Histogram` child).  The model is deliberately
the Prometheus one — monotonic counters, set-anywhere gauges, cumulative
fixed-bucket histograms — because that is what the exporter in
:mod:`repro.obs.export` renders, but the implementation is dependency
free and in-process only.

Design constraints (see ``docs/observability.md``):

* **Exactness under threads.**  Every child guards its state with a
  lock, so counter totals are exact even when eight executor workers
  record queries concurrently.  The lock is per *child*, not per
  registry, so unrelated series never contend.
* **Cheap when absent.**  The instrumented code paths hold a registry
  reference that may be ``None``; nothing in this module runs in that
  case.  The one ``is None`` check sits inside :mod:`repro.obs` (the
  observer base and each per-event helper), never at a call site.
* **Fail-fast naming.**  Re-registering a name with a different type,
  help text or bucket layout raises :class:`~repro.errors.ValidationError`
  immediately; silently divergent series are worse than a crash.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_COST_BUCKETS",
]

#: Latency buckets (seconds): 100 us .. 10 s in roughly 1-2.5-5 steps.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Work-counter buckets (attributes, page reads, heap pops): powers of 4.
DEFAULT_COST_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0,
)

_LabelItems = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Dict[str, str]) -> _LabelItems:
    for key, value in labels.items():
        if not key.isidentifier():
            raise ValidationError(f"invalid label name {key!r}")
        if not isinstance(value, str):
            raise ValidationError(
                f"label values must be strings; got {key}={value!r}"
            )
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("labels", "_value", "_lock")

    def __init__(self, labels: _LabelItems) -> None:
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValidationError(
                f"counters only go up; got inc({amount!r})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (utilisation, queue depth...)."""

    __slots__ = ("labels", "_value", "_lock")

    def __init__(self, labels: _LabelItems) -> None:
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A fixed-bucket cumulative histogram.

    ``buckets`` are the finite upper bounds, ascending; an observation
    ``v`` lands in the first bucket with ``v <= bound`` (Prometheus
    ``le`` semantics) and every observation lands in the implicit
    ``+Inf`` bucket.  ``sum``/``count`` track the running total and the
    observation count.
    """

    __slots__ = ("labels", "buckets", "_bucket_counts", "_sum", "_count", "_lock")

    def __init__(self, labels: _LabelItems, buckets: Sequence[float]) -> None:
        self.labels = labels
        self.buckets = tuple(buckets)
        # one slot per finite bound plus the +Inf overflow slot
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValidationError("cannot observe NaN")
        # binary search over the (short, fixed) bound tuple
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._bucket_counts[lo] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative_counts(self) -> List[int]:
        """Cumulative count per bound (finite bounds then ``+Inf``)."""
        with self._lock:
            raw = list(self._bucket_counts)
        total = 0
        out = []
        for slot in raw:
            total += slot
            out.append(total)
        return out


class MetricFamily:
    """All the children (label combinations) of one metric name."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.buckets = buckets
        self._children: Dict[_LabelItems, object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str):
        """The child for this label combination, created on first use."""
        key = _freeze_labels(labels)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "counter":
                    child = Counter(key)
                elif self.kind == "gauge":
                    child = Gauge(key)
                else:
                    child = Histogram(key, self.buckets)
                self._children[key] = child
        return child

    def children(self) -> List[object]:
        """Children in deterministic (sorted label) order."""
        with self._lock:
            return [self._children[key] for key in sorted(self._children)]


class MetricsRegistry:
    """A named collection of metric families.

    >>> registry = MetricsRegistry()
    >>> queries = registry.counter("repro_queries_total", "queries served")
    >>> queries.labels(engine="ad").inc()
    >>> registry.get("repro_queries_total").labels(engine="ad").value
    1.0
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def counter(self, name: str, help_text: str = "") -> MetricFamily:
        return self._register(name, "counter", help_text, None)

    def gauge(self, name: str, help_text: str = "") -> MetricFamily:
        return self._register(name, "gauge", help_text, None)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        buckets = tuple(float(b) for b in buckets)
        if not buckets:
            raise ValidationError("histogram needs at least one bucket bound")
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValidationError(
                f"histogram buckets must be strictly ascending; got {buckets}"
            )
        return self._register(name, "histogram", help_text, buckets)

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[Tuple[float, ...]],
    ) -> MetricFamily:
        if not name or not name.replace("_", "a").isidentifier():
            raise ValidationError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help_text, buckets)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ValidationError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        if kind == "histogram" and family.buckets != buckets:
            raise ValidationError(
                f"metric {name!r} already registered with buckets "
                f"{family.buckets}"
            )
        return family

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[MetricFamily]:
        """The family called ``name``, or ``None``."""
        return self._families.get(name)

    def collect(self) -> Iterable[MetricFamily]:
        """Families in deterministic (sorted name) order."""
        with self._lock:
            names = sorted(self._families)
        return [self._families[name] for name in names]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)
