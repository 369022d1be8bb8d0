"""Broker monitoring: management telemetry over the broker itself.

NaradaBrokering ships a management/monitoring service; Global-MMCS
operators need it to see broker load across the distributed collection.
A :class:`BrokerMonitor` samples one broker's counters periodically and
publishes a :class:`DeltaSample` on the management topic
``/narada/monitor/<broker-id>`` (or ``/narada/monitor/<cluster>/<broker-id>``
in the clustered fabric, so samples stay inside their cluster).  A
:class:`~repro.obs.aggregate.ClusterHealthAggregator` merges them and
the :class:`~repro.obs.aggregate.FleetMonitor` console reads the merged
summaries (DESIGN.md §11).

The wire format carries only the counters whose value changed since the
previous tick, plus the cumulative delivery-latency histogram when it
moved.  Every ``full_every`` ticks the monitor publishes a *full*
snapshot, which is also the resync mechanism — an aggregator that
detects a sequence gap (gateway takeover, lossy link, restarted broker)
simply waits for the next full sample instead of requesting a replay.

Anti-drift: samples are built from :func:`sample_numbers`, which splats
``Broker.statistics()`` (itself generated from the broker's metrics
registry), so every registered counter travels.  The consumers' reads by
name are checked against the same dict by
``tests/obs/test_metrics_lint.py``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.broker.broker import Broker
from repro.broker.client import BrokerClient, Failover
from repro.obs.metrics import Histogram
from repro.obs.series import delta_encode
from repro.simnet.kernel import Timer

MONITOR_TOPIC_PREFIX = "/narada/monitor"

#: A delta sample ships a full snapshot every this many ticks — the
#: passive resync cadence for aggregators that joined (or lost samples)
#: mid-stream.
DEFAULT_FULL_EVERY = 8


class DeltaSample:
    """Delta-encoded telemetry: changed counters + the latency histogram.

    ``counters`` maps metric name → *absolute* current value for every
    metric that changed since the previous tick (all of them when
    ``full`` is set); ``sketch`` is a copy of the broker's cumulative
    delivery-latency histogram, included only when it changed (always on
    a full sample).  ``seq`` increments per monitor tick so consumers can
    detect gaps and wait out a resync.
    """

    __slots__ = ("broker_id", "at", "seq", "full", "counters", "sketch")

    def __init__(
        self,
        broker_id: str,
        at: float,
        seq: int,
        full: bool,
        counters: Dict[str, float],
        sketch: Optional[Histogram],
    ):
        self.broker_id = broker_id
        self.at = at
        self.seq = seq
        self.full = full
        self.counters = counters
        self.sketch = sketch

    def wire_size(self) -> int:
        """Modeled encoding: 24 B header + 12 B per carried counter."""
        size = 24 + 12 * len(self.counters)
        if self.sketch is not None:
            size += self.sketch.wire_size()
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "full" if self.full else "delta"
        return (
            f"<DeltaSample {self.broker_id} #{self.seq} {kind} "
            f"{len(self.counters)} counters>"
        )


def monitor_topic(broker_id: str, cluster_id: Optional[str] = None) -> str:
    if cluster_id is not None:
        return f"{MONITOR_TOPIC_PREFIX}/{cluster_id}/{broker_id}"
    return f"{MONITOR_TOPIC_PREFIX}/{broker_id}"


def sample_numbers(broker: Broker) -> Dict[str, float]:
    """The flat numeric view of one broker: host gauges + statistics().

    This is the dict :class:`DeltaSample` payloads are delta-encoded
    from; the delivery-latency histogram travels separately, as a
    mergeable copy rather than as pre-baked percentile scalars.
    """
    host = broker.host
    numbers: Dict[str, float] = {
        "clients": broker.client_count(),
        "cpu_busy_s": host.cpu.busy_time,
        "gc_pauses": host.cpu.gc_pauses,
        "nic_sent_packets": host.nic.sent_packets,
        "nic_dropped_packets": host.nic.dropped_packets,
        "last_route_change_at": broker.last_route_change_at,
    }
    numbers.update(broker.statistics())
    return numbers


class BrokerMonitor:
    """Publishes one broker's telemetry on its management topic.

    Each tick publishes a :class:`DeltaSample` (changed counters only,
    full snapshot every ``full_every`` ticks).
    ``topic`` overrides the publish topic — the hierarchical plane uses
    the cluster-scoped form so leaf samples never cross the gateway
    overlay.
    """

    def __init__(
        self,
        broker: Broker,
        interval_s: float = 5.0,
        monitor_id: Optional[str] = None,
        failover: Optional[Failover] = None,
        full_every: int = DEFAULT_FULL_EVERY,
        topic: Optional[str] = None,
    ):
        if full_every < 1:
            raise ValueError("full_every must be >= 1")
        self.broker = broker
        self.sim = broker.sim
        self.interval_s = interval_s
        self.full_every = full_every
        self.topic = topic or monitor_topic(broker.broker_id)
        self.client = BrokerClient(
            broker.host,
            client_id=monitor_id or f"monitor/{broker.broker_id}",
            failover=failover,
        )
        self.client.connect(broker)
        self._timer: Optional[Timer] = None
        self._seq = 0
        self._ticks_since_full = 0
        self._last_numbers: Optional[Dict[str, float]] = None
        self._last_sketch: Optional[Histogram] = None
        self.samples_published = 0
        self.full_samples_published = 0
        self.sample_bytes_published = 0

    def start(self) -> None:
        if self._timer is None:
            self._timer = self.sim.schedule(self.interval_s, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self._publish()
        self._timer = self.sim.schedule(self.interval_s, self._tick)

    def rebind(self, broker: Broker) -> None:
        """Follow a restarted broker: sample the new object and publish
        through it.  The next sample is full, so consumers re-base on the
        new broker's counters."""
        self.broker = broker
        self._last_numbers = None
        # Kill first: a sample still queued for the dead broker is dropped.
        self.client.kill()
        self.client.reconnect(broker)

    def _publish(self) -> None:
        numbers = sample_numbers(self.broker)
        sketch = self.broker.delivery_latency.copy()
        full = (
            self._last_numbers is None
            or self._ticks_since_full + 1 >= self.full_every
        )
        if full:
            counters = dict(numbers)
            sketch_payload: Optional[Histogram] = sketch
            self._ticks_since_full = 0
        else:
            counters = delta_encode(self._last_numbers, numbers)
            sketch_payload = sketch if sketch != self._last_sketch else None
            self._ticks_since_full += 1
        self._seq += 1
        self._last_numbers = numbers
        self._last_sketch = sketch
        if not self.client.connected:
            return
        sample = DeltaSample(
            self.broker.broker_id,
            self.sim.now,
            self._seq,
            full,
            counters,
            sketch_payload,
        )
        self.client.publish(self.topic, sample, sample.wire_size())
        self.samples_published += 1
        if full:
            self.full_samples_published += 1
        self.sample_bytes_published += sample.wire_size()
