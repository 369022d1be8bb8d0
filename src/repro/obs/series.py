"""Telemetry time series: ring buffers, downsampling tiers, counter deltas.

The hierarchical telemetry plane (DESIGN.md §11) needs two primitives
beside the mergeable :class:`~repro.obs.metrics.Histogram`:

* :class:`TimeSeries` — a bounded per-metric history with tiered
  downsampling (raw → 1 s → 10 s), so a console can hold hours of
  virtual time per metric in a few hundred slots instead of growing
  without bound or forgetting everything past the raw window;
* :func:`delta_encode` / :func:`merge_counter_totals` — the counter
  half of the telemetry samples: leaf monitors ship only the keys that
  changed since the previous sample, aggregators re-sum absolute values
  per broker.

Everything here sits on telemetry hot paths (one :meth:`TimeSeries.record`
per sample per metric), so every class declares ``__slots__`` — enforced
by the slots lint (``tests/obs/test_slots_lint.py``).  Determinism: no
wall clock, no randomness; time is whatever the caller stamps.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

#: Raw ring capacity: at the default 1 s sampling cadence this is four
#: minutes of full-resolution history per series.
DEFAULT_RAW_CAPACITY = 240

#: Downsampled-tier ring capacity (per tier).  360 ten-second buckets is
#: an hour of coarse history.
DEFAULT_TIER_CAPACITY = 360

#: Downsampling tier widths in seconds (raw → tier 1 → tier 2).
TIER_WIDTHS_S = (1.0, 10.0)


class SeriesBucket:
    """One downsampled aggregate: ``count/sum/min/max/last`` over a window."""

    __slots__ = ("start", "count", "sum", "min", "max", "last")

    def __init__(self, start: float, value: float):
        self.start = start
        self.count = 1
        self.sum = value
        self.min = value
        self.max = value
        self.last = value

    def add(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SeriesBucket @{self.start} n={self.count} "
            f"[{self.min}, {self.max}]>"
        )


class TimeSeries:
    """Bounded history of one metric with tiered downsampling.

    :meth:`record` appends to the raw ring and folds the value into the
    open 1 s bucket; when time crosses a 1 s boundary the closed bucket
    moves to the tier-1 ring and likewise cascades into the 10 s tier-2
    ring.  Samples must arrive in non-decreasing time order (they come
    from one simulated clock); an out-of-order sample is dropped and
    counted rather than corrupting the open buckets.
    """

    __slots__ = (
        "name",
        "raw",
        "tiers",
        "_open",
        "dropped_out_of_order",
    )

    def __init__(
        self,
        name: str,
        raw_capacity: int = DEFAULT_RAW_CAPACITY,
        tier_capacity: int = DEFAULT_TIER_CAPACITY,
    ):
        if raw_capacity < 2 or tier_capacity < 2:
            raise ValueError("series capacities must be at least 2")
        self.name = name
        self.raw: Deque[Tuple[float, float]] = deque(maxlen=raw_capacity)
        self.tiers: Tuple[Deque[SeriesBucket], ...] = tuple(
            deque(maxlen=tier_capacity) for _ in TIER_WIDTHS_S
        )
        self._open: List[Optional[SeriesBucket]] = [None] * len(TIER_WIDTHS_S)
        self.dropped_out_of_order = 0

    def record(self, at: float, value: float) -> None:
        value = float(value)
        if self.raw and at < self.raw[-1][0]:
            self.dropped_out_of_order += 1
            return
        self.raw.append((at, value))
        self._fold(0, at, value)

    def _fold(self, tier: int, at: float, value: float) -> None:
        width = TIER_WIDTHS_S[tier]
        start = (at // width) * width
        bucket = self._open[tier]
        if bucket is None:
            self._open[tier] = SeriesBucket(start, value)
            return
        if start <= bucket.start:
            bucket.add(value)
            return
        # Window rolled over: seal the open bucket into this tier's ring
        # and cascade its mean into the next tier.
        self.tiers[tier].append(bucket)
        if tier + 1 < len(TIER_WIDTHS_S):
            self._fold(tier + 1, bucket.start, bucket.mean)
        self._open[tier] = SeriesBucket(start, value)

    # ------------------------------------------------------------ queries

    def latest(self) -> Optional[Tuple[float, float]]:
        return self.raw[-1] if self.raw else None

    def values(self, since: float = float("-inf")) -> List[Tuple[float, float]]:
        """Raw ``(at, value)`` points newer than ``since``."""
        return [point for point in self.raw if point[0] >= since]

    def tier_buckets(self, tier: int) -> List[SeriesBucket]:
        """Sealed buckets of one downsampling tier (0 = 1 s, 1 = 10 s)."""
        return list(self.tiers[tier])

    def span_s(self) -> float:
        """Virtual-time distance covered by the retained raw window."""
        if len(self.raw) < 2:
            return 0.0
        return self.raw[-1][0] - self.raw[0][0]

    def __len__(self) -> int:
        return len(self.raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimeSeries {self.name} raw={len(self.raw)}>"


class SeriesStore:
    """A keyed collection of :class:`TimeSeries` (one console's memory)."""

    __slots__ = ("_series",)

    def __init__(self):
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(name)
        return series

    def record(self, name: str, at: float, value: float) -> None:
        self.series(name).record(at, value)

    def get(self, name: str) -> Optional[TimeSeries]:
        return self._series.get(name)

    def names(self) -> List[str]:
        return sorted(self._series)

    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SeriesStore {len(self._series)} series>"


def delta_encode(
    previous: Optional[Dict[str, float]], current: Dict[str, float]
) -> Dict[str, float]:
    """The delta-encoded counter payload: keys whose value changed.

    Values stay *absolute* (not differences), so applying a delta is
    idempotent and an aggregator that joins mid-stream only needs one
    full snapshot — not a replay — to catch up (see the gateway-takeover
    resync contract in :mod:`repro.obs.aggregate`).
    """
    if previous is None:
        return dict(current)
    return {
        key: value
        for key, value in current.items()
        if previous.get(key) != value
    }


def merge_counter_totals(
    per_source: Iterable[Dict[str, float]],
) -> Dict[str, float]:
    """Sum per-source absolute counter snapshots into fleet totals."""
    totals: Dict[str, float] = {}
    for counters in per_source:
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals
