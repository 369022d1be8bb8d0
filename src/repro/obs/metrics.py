"""Lightweight metrics registry: counters, gauges, histograms.

Every subsystem that used to keep ad-hoc integer counter attributes
(brokers, gateways, the session server) now registers them in a
:class:`MetricsRegistry`, which becomes the *single source of truth* for
telemetry snapshots: ``Broker.statistics()`` and the monitor plane's
:class:`~repro.broker.monitor.DeltaSample` payloads are both generated
from the registry, so a counter added in one place can no longer
silently drift out of the other (a lint test walks ``broker.py`` for
mutated counters and fails on any that were never registered, and
checks that every counter the telemetry consumers read by name exists).

Two registration styles:

* **owned** metrics (:meth:`MetricsRegistry.counter`,
  :meth:`~MetricsRegistry.histogram`) allocate the value object here;
* **bound** metrics (:meth:`MetricsRegistry.expose`) read an existing
  attribute through a getter at snapshot time, so hot paths keep their
  plain ``self.x += 1`` integer increments with zero added cost.

Histograms use fixed bucket bounds (no per-observation allocation) and
export p50/p95/p99 by linear interpolation *within* the bucket the
quantile rank falls in — the MonALISA-style "good enough to alert on"
percentile without the up-to-one-bucket-width upward bias that
reporting the bucket's upper edge used to add.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Delivery/receive latency bucket bounds (seconds).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.010, 0.020, 0.050,
    0.100, 0.200, 0.500, 1.0, 2.0,
)

#: Signaling (join/INVITE) latency bucket bounds (seconds).
SIGNALING_BUCKETS_S: Tuple[float, ...] = (
    0.005, 0.010, 0.020, 0.050, 0.100, 0.200, 0.500, 1.0, 2.0, 5.0, 10.0,
)


def bucket_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    count: int,
    max_value: float,
    q: float,
) -> float:
    """Interpolated quantile over fixed-bucket counts.

    ``bounds`` are the upper edges of the finite buckets; ``counts`` has
    one extra trailing overflow bucket.  The rank is located in its
    bucket and the estimate interpolates linearly between the bucket's
    lower and upper edge (the overflow bucket interpolates up to the
    observed maximum), assuming observations spread evenly within a
    bucket.  Shared by :class:`Histogram` and the mergeable
    :class:`~repro.obs.series.HistogramSketch` so local and fleet-merged
    percentiles agree bucket-for-bucket.
    """
    if count == 0:
        return 0.0
    rank = q * count
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        cumulative += bucket_count
        if cumulative >= rank:
            lower = bounds[index - 1] if index > 0 else 0.0
            if index < len(bounds):
                upper = bounds[index]
            else:  # overflow bucket: interpolate up to the observed max
                upper = max(max_value, lower)
            fraction = (rank - (cumulative - bucket_count)) / bucket_count
            return lower + fraction * (upper - lower)
    return max_value


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram with cheap percentile export.

    ``bounds`` are the upper edges of the finite buckets; one overflow
    bucket catches everything above the last bound.  ``quantile``
    interpolates within the bucket containing the requested rank (see
    :func:`bucket_quantile`), so the estimate is off by at most the
    width of that bucket rather than always sitting at its upper edge.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "max")

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS_S):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        return bucket_quantile(self.bounds, self.counts, self.count, self.max, q)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} p99={self.quantile(0.99)}>"


class MetricsRegistry:
    """Named metrics for one component (a broker, a gateway, a server)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._bound: Dict[str, Callable[[], Any]] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------- registration

    def counter(self, name: str) -> Counter:
        """Create (or fetch) an owned counter."""
        self._check_new(name, allow=self._counters)
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def expose(self, name: str, getter: Callable[[], Any]) -> None:
        """Register a counter/gauge backed by an existing attribute.

        The getter runs at snapshot time; the owner keeps mutating its
        plain attribute so hot paths pay nothing for registration.
        """
        self._check_new(name, allow=self._bound)
        self._bound[name] = getter

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS_S
    ) -> Histogram:
        self._check_new(name, allow=self._histograms)
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def _check_new(self, name: str, allow: Dict[str, Any]) -> None:
        for family in (self._counters, self._bound, self._histograms):
            if family is not allow and name in family:
                raise ValueError(f"metric {name!r} already registered")

    # ------------------------------------------------------------ queries

    def names(self) -> List[str]:
        return sorted(
            set(self._counters) | set(self._bound) | set(self._histograms)
        )

    def has(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._bound
            or name in self._histograms
        )

    def get_histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def counters_snapshot(self) -> Dict[str, Any]:
        """Every counter and bound value, by name (no histograms)."""
        snapshot: Dict[str, Any] = {
            name: counter.value for name, counter in self._counters.items()
        }
        for name, getter in self._bound.items():
            snapshot[name] = getter()
        return snapshot

    def snapshot(self) -> Dict[str, Any]:
        """Everything: counters, bound values, histogram summaries.

        Histogram summaries are flattened as ``<name>_<stat>`` keys so the
        result serializes directly into ``BENCH_*.json`` artifacts.
        """
        snapshot = self.counters_snapshot()
        for name, histogram in self._histograms.items():
            for stat, value in histogram.summary().items():
                snapshot[f"{name}_{stat}"] = value
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self.names())} metrics>"
