"""Deterministic online anomaly detection over telemetry series.

The point of the telemetry plane is to see a flash crowd *coming*: the
:class:`~repro.broker.overload.OverloadController` trips only once a
pressure signal crosses its watermark, but the ramp toward the watermark
is visible seconds earlier in the series themselves.  Two detector
shapes cover the two ways a signal goes bad:

* :class:`EwmaBandDetector` — a level shift.  Tracks an exponentially
  weighted mean and mean absolute deviation; a value above
  ``mean + band_k * deviation`` for ``min_consecutive`` samples is an
  anomaly.  The baseline freezes while breaching, so a sustained step
  cannot absorb itself into the band.
* :class:`SlopeDetector` — a ramp.  Fits the secant slope over a sliding
  window; a climb steeper than ``slope_per_s`` that has already risen by
  ``min_rise`` is an anomaly even while the absolute level is still far
  below any watermark.  This is the detector that leads the overload
  controller on a flash-crowd ramp (measured as detection lead time in
  ``benchmarks/bench_telemetry.py``).

Both are pure arithmetic over ``(at, value)`` observations — no wall
clock, no randomness, no hidden state — so detection times replay
bit-identically under the simulator.  They plug into
:meth:`repro.obs.slo.SloWatchdog.watch_anomaly`, which handles episode
hysteresis and alert publication.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

#: Floor of a detector's deviation band, so a perfectly flat warmup
#: (deviation → 0) does not page on the first harmless wiggle.
MIN_DEVIATION = 1e-9


class Anomaly:
    """One detector firing: what, when, how far out of band."""

    __slots__ = ("kind", "at", "value", "threshold")

    def __init__(self, kind: str, at: float, value: float, threshold: float):
        self.kind = kind
        self.at = at
        self.value = value
        self.threshold = threshold

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Anomaly {self.kind} at={self.at} "
            f"value={self.value} threshold={self.threshold}>"
        )


class EwmaBandDetector:
    """EWMA level-shift detector with a deviation band.

    ``observe`` returns an :class:`Anomaly` while the signal sits above
    the band, ``None`` otherwise; :data:`MIN_DEVIATION` floors the band.
    """

    __slots__ = (
        "alpha",
        "band_k",
        "warmup",
        "min_consecutive",
        "_mean",
        "_deviation",
        "_seen",
        "_breaches",
    )

    def __init__(
        self,
        alpha: float = 0.2,
        band_k: float = 4.0,
        warmup: int = 8,
        min_consecutive: int = 2,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if band_k <= 0 or warmup < 1 or min_consecutive < 1:
            raise ValueError("band_k, warmup, min_consecutive must be positive")
        self.alpha = alpha
        self.band_k = band_k
        self.warmup = warmup
        self.min_consecutive = min_consecutive
        self._mean = 0.0
        self._deviation = 0.0
        self._seen = 0
        self._breaches = 0

    @property
    def band_upper(self) -> float:
        return self._mean + self.band_k * max(
            self._deviation, MIN_DEVIATION
        )

    def observe(self, at: float, value: float) -> Optional[Anomaly]:
        if self._seen < self.warmup:
            self._update(value)
            return None
        threshold = self.band_upper
        if value > threshold:
            # Freeze the baseline while breaching: a step must stay an
            # anomaly until an operator (or recovery) brings it back.
            self._breaches += 1
            if self._breaches >= self.min_consecutive:
                return Anomaly("ewma-band", at, value, threshold)
            return None
        self._breaches = 0
        self._update(value)
        return None

    def _update(self, value: float) -> None:
        if self._seen == 0:
            self._mean = value
        else:
            error = value - self._mean
            self._mean += self.alpha * error
            self._deviation += self.alpha * (abs(error) - self._deviation)
        self._seen += 1


class SlopeDetector:
    """Sliding-window ramp detector (secant slope + absolute rise)."""

    __slots__ = ("window_s", "slope_per_s", "min_rise", "min_points", "_points")

    def __init__(
        self,
        slope_per_s: float,
        window_s: float = 5.0,
        min_rise: float = 0.0,
        min_points: int = 3,
    ):
        if slope_per_s <= 0 or window_s <= 0:
            raise ValueError("slope_per_s and window_s must be positive")
        if min_points < 2:
            raise ValueError("min_points must be at least 2")
        self.window_s = window_s
        self.slope_per_s = slope_per_s
        self.min_rise = min_rise
        self.min_points = min_points
        self._points: Deque[Tuple[float, float]] = deque()

    def observe(self, at: float, value: float) -> Optional[Anomaly]:
        points = self._points
        points.append((at, value))
        horizon = at - self.window_s
        while points and points[0][0] < horizon:
            points.popleft()
        if len(points) < self.min_points:
            return None
        first_at, first_value = points[0]
        span = at - first_at
        if span <= 0.0:
            return None
        rise = value - first_value
        slope = rise / span
        if slope >= self.slope_per_s and rise >= self.min_rise:
            return Anomaly("slope-ramp", at, value, self.slope_per_s)
        return None
