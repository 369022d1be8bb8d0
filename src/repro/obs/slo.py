"""SLO watchdog: periodic probes that publish alerts on ``/narada/alerts/#``.

The watchdog turns the metrics/trace spine into operations: a probe list
is evaluated every ``check_interval_s`` of virtual time, and when a probe
crosses its target an :class:`SloAlert` is published on
``/narada/alerts/<probe-name>``.  Alerting is *episode-based*: one alert
when a violation starts, re-armed only after the probe recovers, so a
sustained breach does not flood the control plane.

Probes shipped here mirror the paper's operational concerns:

* :meth:`SloWatchdog.watch_quantile` — a histogram percentile (p99 media
  delivery delay, p99 join latency) against a target;
* :meth:`SloWatchdog.watch_media_gap` — time since the last media
  delivery on a topic against a gap budget (fires *during* the silence,
  which is exactly when operators need it — a crashed broker produces no
  sample that could trip a latency histogram);
* :meth:`SloWatchdog.watch_overload` — a broker's overload state
  (DESIGN.md §9): one alert per DEGRADED/SHEDDING episode;
* :meth:`SloWatchdog.watch_anomaly` — an online detector
  (:mod:`repro.obs.anomaly`) fed from a gauge on the watchdog cadence,
  recording each reading into a :class:`~repro.obs.series.TimeSeries`;
  this is the early-warning probe that fires on a flash-crowd *ramp*
  before the overload controller's watermarks trip (DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.broker.broker import Broker
from repro.broker.client import BrokerClient
from repro.broker.event import NBEvent
from repro.obs.metrics import Histogram
from repro.obs.series import TimeSeries
from repro.obs.trace import ALERT_TOPIC_PREFIX
from repro.simnet.node import Host

#: Wire-size model of an alert event.
ALERT_BYTES = 96


@dataclass(frozen=True)
class SloAlert:
    """One SLO violation episode, published on ``/narada/alerts/<name>``."""

    name: str
    kind: str
    at: float
    value: float
    target: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "at": self.at,
            "value": self.value,
            "target": self.target,
            "detail": self.detail,
        }


@dataclass
class _Probe:
    name: str
    kind: str
    target: float
    check: Callable[[float], Optional[float]]  # now -> violating value
    active: bool = False
    violations: int = 0


class SloWatchdog:
    """Evaluates SLO probes on a virtual-time cadence and raises alerts."""

    def __init__(
        self,
        host: Host,
        broker: Broker,
        check_interval_s: float = 0.5,
        client_id: str = "slo-watchdog",
    ):
        self.sim = host.sim
        self.check_interval_s = check_interval_s
        self.client = BrokerClient(host, client_id=client_id)
        self.client.connect(broker)
        self._probes: List[_Probe] = []
        self.alerts_raised = 0
        self._running = True
        self._timer = self.sim.schedule(check_interval_s, self._tick)

    # ------------------------------------------------------------- probes

    def watch_quantile(
        self,
        name: str,
        histogram: Histogram,
        target_s: float,
        q: float = 0.99,
        min_count: int = 10,
        kind: str = "latency",
    ) -> None:
        """Alert when ``histogram``'s ``q`` percentile exceeds ``target_s``.

        ``min_count`` suppresses alerts off a near-empty histogram (a
        single slow sample during warm-up is not an SLO breach).
        """
        def check(_now: float) -> Optional[float]:
            if histogram.count < min_count:
                return None
            value = histogram.quantile(q)
            return value if value > target_s else None

        self._probes.append(_Probe(name, kind, target_s, check))

    def watch_media_gap(
        self,
        name: str,
        last_delivery: Callable[[], Optional[float]],
        budget_s: float,
    ) -> None:
        """Alert when no media has been delivered for ``budget_s``.

        ``last_delivery`` returns the virtual time of the most recent
        delivery (None before the stream starts).  Because the probe runs
        on a timer it fires *during* the outage — no sample required.
        """
        def check(now: float) -> Optional[float]:
            last = last_delivery()
            if last is None:
                return None
            gap = now - last
            return gap if gap > budget_s else None

        self._probes.append(_Probe(name, "media_gap", budget_s, check))

    def watch_gauge(
        self,
        name: str,
        getter: Callable[[], float],
        target: float,
        kind: str = "gauge",
    ) -> None:
        """Alert when an instantaneous value (e.g. outbox depth) exceeds
        ``target``."""
        def check(_now: float) -> Optional[float]:
            value = getter()
            return value if value > target else None

        self._probes.append(_Probe(name, kind, target, check))

    def watch_overload(
        self,
        name: str,
        state: Callable[[], int],
    ) -> None:
        """Alert while a broker's overload state is above NORMAL.

        ``state`` is the broker's ``overload_state`` gauge (0 NORMAL,
        1 DEGRADED, 2 SHEDDING — see :mod:`repro.broker.overload`).
        Episode semantics give operators one alert per overload episode
        and, via ``probe_status``, a live ``active`` flag; the gauge read
        itself drives the controller's lazy state refresh, so recovery to
        NORMAL is observed on the watchdog cadence.
        """
        def check(_now: float) -> Optional[float]:
            value = state()
            return float(value) if value > 0 else None

        self._probes.append(_Probe(name, "overload", 0.0, check))

    def watch_anomaly(
        self,
        name: str,
        getter: Callable[[], float],
        detector: object,
        series: Optional[TimeSeries] = None,
    ) -> None:
        """Alert when an online detector flags the gauge's trajectory.

        Unlike :meth:`watch_gauge` this probe has no fixed target: the
        detector (:class:`~repro.obs.anomaly.EwmaBandDetector` or
        :class:`~repro.obs.anomaly.SlopeDetector`) decides from the
        signal's own history whether the current reading is anomalous —
        which is how a ramp gets caught while the absolute level is
        still far below any overload watermark.  Every reading is also
        recorded into ``series`` (if given), so the console's
        time-series store and the detector see the same data.  Episode
        semantics are the watchdog's usual: one alert per anomaly
        episode, re-armed once the detector goes quiet.
        """
        def check(now: float) -> Optional[float]:
            value = float(getter())
            if series is not None:
                series.record(now, value)
            anomaly = detector.observe(now, value)
            return value if anomaly is not None else None

        self._probes.append(_Probe(name, "anomaly", 0.0, check))

    # ----------------------------------------------------------- plumbing

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        for probe in self._probes:
            value = probe.check(now)
            if value is None:
                probe.active = False  # recovered: re-arm
                continue
            if probe.active:
                continue  # same episode, already alerted
            probe.active = True
            probe.violations += 1
            self._raise(probe, value, now)
        self._timer = self.sim.schedule(self.check_interval_s, self._tick)

    def _raise(self, probe: _Probe, value: float, now: float) -> None:
        alert = SloAlert(
            name=probe.name, kind=probe.kind, at=now,
            value=value, target=probe.target,
        )
        self.alerts_raised += 1
        if self.client.connected:
            self.client.publish(
                f"{ALERT_TOPIC_PREFIX}/{probe.name}", alert, size=ALERT_BYTES
            )

    def probe_status(self) -> Dict[str, dict]:
        return {
            probe.name: {
                "kind": probe.kind,
                "target": probe.target,
                "active": probe.active,
                "violations": probe.violations,
            }
            for probe in self._probes
        }

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.client.disconnect()


class AlertLog:
    """A subscriber that records every alert raised in the collection."""

    def __init__(
        self,
        host: Host,
        broker: Broker,
        client_id: str = "alert-log",
    ):
        self.client = BrokerClient(host, client_id=client_id)
        self.client.connect(broker)
        self.client.subscribe(f"{ALERT_TOPIC_PREFIX}/#", self._on_alert)
        self.alerts: List[SloAlert] = []

    def _on_alert(self, event: NBEvent) -> None:
        if isinstance(event.payload, SloAlert):
            self.alerts.append(event.payload)

    def named(self, name: str) -> List[SloAlert]:
        return [alert for alert in self.alerts if alert.name == name]

    def between(self, start: float, end: float) -> List[SloAlert]:
        return [alert for alert in self.alerts if start <= alert.at <= end]

    def disconnect(self) -> None:
        self.client.disconnect()
