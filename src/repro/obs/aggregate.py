"""Hierarchical telemetry plane: cluster gateways aggregate, fleet merges.

PR 7 removed the O(N) control-plane floods (interest summaries, scoped
LSAs); this module removes the last one — monitoring.  Instead of every
broker flooding a full sample to one wildcard console, the plane mirrors
the cluster fabric (DESIGN.md §11):

* leaf brokers publish :class:`~repro.broker.monitor.DeltaSample` on the
  cluster-scoped topic ``/narada/monitor/<cluster>/<broker>`` — traffic
  that never leaves the cluster;
* a :class:`ClusterHealthAggregator` rides every gateway broker of the
  cluster.  All of them ingest the cluster's samples (shadow state), but
  only the one whose broker is the *elected active gateway* publishes a
  merged :class:`ClusterHealthSummary` on ``/narada/health/<cluster>`` —
  on a gateway takeover the standby's aggregator takes over publishing
  with no hand-off protocol, because it has been listening all along;
* the top-level :class:`FleetMonitor` subscribes ``/narada/health/#``
  and therefore sees O(clusters) messages per interval instead of
  O(brokers), while still recovering true fleet-wide percentiles by
  merging the per-cluster latency histograms once more.

A flat fabric is the one-cluster case: samples on
``/narada/monitor/<broker>``, one always-publishing aggregator, and the
same console, which lists one cluster named :data:`FLAT_SCOPE`.

Resync contract: delta samples carry a per-monitor sequence number and
*absolute* counter values, and every ``full_every`` ticks the monitor
publishes a full snapshot.  An aggregator that observes a sequence gap
(lossy link, its own late start) marks the broker unsynced — excluded
from merged totals, flagged in the summary — until the next full sample
re-bases it.  No replay, no request channel, deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.broker.broker import Broker
from repro.broker.client import BrokerClient, Failover
from repro.broker.event import NBEvent
from repro.broker.monitor import (
    BrokerMonitor,
    DeltaSample,
    monitor_topic,
)
from repro.obs.metrics import Histogram
from repro.obs.series import SeriesStore, merge_counter_totals
from repro.simnet.kernel import Timer
from repro.simnet.node import Host

HEALTH_TOPIC_PREFIX = "/narada/health"

#: Default per-cluster summary history at the fleet console.
DEFAULT_SUMMARY_HISTORY = 360

#: The ``cluster_id`` of a flat fabric's one scope: its summaries ride
#: ``/narada/health/flat`` and the console lists one cluster, ``flat``.
FLAT_SCOPE = "flat"


def health_topic(cluster_id: str) -> str:
    return f"{HEALTH_TOPIC_PREFIX}/{cluster_id}"


class BrokerHealth:
    """One broker's condensed row inside a cluster summary."""

    __slots__ = (
        "broker_id",
        "at",
        "overload_state",
        "outbox_depth",
        "cpu_busy_s",
        "events_delivered",
        "clients",
        "synced",
    )

    def __init__(
        self,
        broker_id: str,
        at: float,
        overload_state: int,
        outbox_depth: int,
        cpu_busy_s: float,
        events_delivered: int,
        clients: int,
        synced: bool,
    ):
        self.broker_id = broker_id
        self.at = at
        self.overload_state = overload_state
        self.outbox_depth = outbox_depth
        self.cpu_busy_s = cpu_busy_s
        self.events_delivered = events_delivered
        self.clients = clients
        self.synced = synced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BrokerHealth {self.broker_id} state={self.overload_state} "
            f"outbox={self.outbox_depth}>"
        )


class ClusterHealthSummary:
    """One cluster's merged health, published by its active gateway."""

    __slots__ = (
        "cluster_id",
        "origin",
        "at",
        "seq",
        "brokers",
        "counters",
        "sketch",
        "stale_brokers",
        "unsynced_brokers",
    )

    def __init__(
        self,
        cluster_id: str,
        origin: str,
        at: float,
        seq: int,
        brokers: Tuple[BrokerHealth, ...],
        counters: Dict[str, float],
        sketch: Histogram,
        stale_brokers: Tuple[str, ...],
        unsynced_brokers: Tuple[str, ...],
    ):
        self.cluster_id = cluster_id
        self.origin = origin
        self.at = at
        self.seq = seq
        self.brokers = brokers
        self.counters = counters
        self.sketch = sketch
        self.stale_brokers = stale_brokers
        self.unsynced_brokers = unsynced_brokers

    def worst_state(self) -> int:
        return max(
            (row.overload_state for row in self.brokers), default=0
        )

    def outbox_depth(self) -> int:
        return sum(row.outbox_depth for row in self.brokers)

    def wire_size(self) -> int:
        """Modeled encoding: header + 24 B/row + 12 B/counter + histogram."""
        return (
            32
            + 24 * len(self.brokers)
            + 12 * len(self.counters)
            + self.sketch.wire_size()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClusterHealthSummary {self.cluster_id} #{self.seq} "
            f"{len(self.brokers)} brokers>"
        )


class _BrokerLedger:
    """An aggregator's running state for one leaf broker."""

    __slots__ = ("numbers", "sketch", "last_seq", "last_at", "synced")

    def __init__(self) -> None:
        self.numbers: Dict[str, float] = {}
        self.sketch = Histogram("delivery_latency_s")
        self.last_seq = 0
        self.last_at = 0.0
        self.synced = False


class ClusterHealthAggregator:
    """The gateway-side merge: cluster samples in, one summary out.

    One aggregator runs on *every* gateway broker of the cluster; all
    ingest, only the active gateway's instance publishes.  The client
    lives on the gateway's own host and connects to it directly, so a
    crashed gateway silences its aggregator exactly when the election
    promotes the standby.

    On a flat (cluster-less) broker the aggregator is the fabric's only
    one: it ingests every ``/narada/monitor/<broker>`` sample and always
    publishes — there is no election to win.
    """

    def __init__(
        self,
        broker: Broker,
        cluster_id: str,
        interval_s: float = 1.0,
        stale_timeout_s: float = 15.0,
    ):
        self.broker = broker
        self.cluster_id = cluster_id
        self.sim = broker.sim
        self.interval_s = interval_s
        self.stale_timeout_s = stale_timeout_s
        self.client = BrokerClient(
            broker.host, client_id=f"health-aggregator/{broker.broker_id}"
        )
        self.client.connect(broker)
        flat = broker.cluster_id is None
        self.client.subscribe(
            monitor_topic("#", None if flat else cluster_id), self._on_sample
        )
        self._ledgers: Dict[str, _BrokerLedger] = {}
        self._timer: Optional[Timer] = None
        self._seq = 0
        self.samples_ingested = 0
        self.delta_gaps = 0
        self.resyncs = 0
        self.summaries_published = 0
        self.standby_ticks = 0

    # ------------------------------------------------------------- ingest

    def _on_sample(self, event: NBEvent) -> None:
        sample = event.payload
        if not isinstance(sample, DeltaSample):
            return
        self.samples_ingested += 1
        ledger = self._ledgers.get(sample.broker_id)
        if ledger is None:
            ledger = self._ledgers[sample.broker_id] = _BrokerLedger()
        in_sequence = sample.seq == ledger.last_seq + 1
        if sample.full:
            if ledger.synced and not in_sequence:
                self.delta_gaps += 1
            if not ledger.synced and ledger.last_seq:
                self.resyncs += 1
            ledger.numbers = dict(sample.counters)
            if sample.sketch is not None:
                ledger.sketch = sample.sketch.copy()
            ledger.synced = True
        elif ledger.synced and in_sequence:
            ledger.numbers.update(sample.counters)
            if sample.sketch is not None:
                ledger.sketch = sample.sketch.copy()
        else:
            # A gap (or a delta before any full): absolute values would
            # apply cleanly, but the snapshot is incomplete — wait for
            # the next full sample instead of merging partial state.
            if ledger.synced:
                self.delta_gaps += 1
            ledger.synced = False
        ledger.last_seq = sample.seq
        ledger.last_at = sample.at

    # ------------------------------------------------------------ publish

    def start(self) -> None:
        if self._timer is None:
            self._timer = self.sim.schedule(self.interval_s, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def rebind(self, broker: Broker) -> None:
        """Follow a restarted broker: read its election state and ingest
        through it (the reconnect replays the sample subscription)."""
        self.broker = broker
        self.client.kill()
        self.client.reconnect(broker)

    def _tick(self) -> None:
        broker = self.broker
        if (
            broker.is_active_gateway or broker.cluster_id is None
        ) and self.client.connected:
            summary = self.build_summary()
            if summary is not None:
                self.client.publish(
                    health_topic(self.cluster_id),
                    summary,
                    summary.wire_size(),
                )
                self.summaries_published += 1
        else:
            self.standby_ticks += 1
        self._timer = self.sim.schedule(self.interval_s, self._tick)

    def build_summary(self) -> Optional[ClusterHealthSummary]:
        if not self._ledgers:
            return None
        now = self.sim.now
        rows: List[BrokerHealth] = []
        stale: List[str] = []
        unsynced: List[str] = []
        synced_numbers: List[Dict[str, float]] = []
        sketches: List[Histogram] = []
        for broker_id in sorted(self._ledgers):
            ledger = self._ledgers[broker_id]
            numbers = ledger.numbers
            rows.append(
                BrokerHealth(
                    broker_id=broker_id,
                    at=ledger.last_at,
                    overload_state=int(numbers.get("overload_state", 0)),
                    outbox_depth=int(numbers.get("outbox_depth", 0)),
                    cpu_busy_s=float(numbers.get("cpu_busy_s", 0.0)),
                    events_delivered=int(numbers.get("events_delivered", 0)),
                    clients=int(numbers.get("clients", 0)),
                    synced=ledger.synced,
                )
            )
            if now - ledger.last_at > self.stale_timeout_s:
                stale.append(broker_id)
            if not ledger.synced:
                unsynced.append(broker_id)
            if ledger.synced:
                synced_numbers.append(numbers)
                sketches.append(ledger.sketch)
        self._seq += 1
        return ClusterHealthSummary(
            cluster_id=self.cluster_id,
            origin=self.broker.broker_id,
            at=now,
            seq=self._seq,
            brokers=tuple(rows),
            counters=merge_counter_totals(synced_numbers),
            sketch=Histogram("delivery_latency_s").merge(*sketches),
            stale_brokers=tuple(stale),
            unsynced_brokers=tuple(unsynced),
        )


class FleetMonitor:
    """The O(clusters) console: merges cluster summaries into fleet state.

    Keeps bounded per-cluster summary history, records key per-cluster
    signals into a :class:`~repro.obs.series.SeriesStore` (raw → 1 s →
    10 s tiers), and re-merges the per-cluster histograms on demand for
    fleet-wide percentiles.
    """

    def __init__(
        self,
        host: Host,
        broker: Broker,
        client_id: str = "fleet-console",
        history_limit: int = DEFAULT_SUMMARY_HISTORY,
        stale_timeout_s: float = 15.0,
        failover: Optional[Failover] = None,
    ):
        if history_limit < 2:
            raise ValueError("history_limit must be at least 2")
        self.history_limit = history_limit
        self.stale_timeout_s = stale_timeout_s
        self.sim = broker.sim
        self.client = BrokerClient(host, client_id=client_id, failover=failover)
        self.client.connect(broker)
        self.history: Dict[str, Deque[ClusterHealthSummary]] = {}
        self.store = SeriesStore()
        self.summaries_received = 0
        self.duplicate_summaries = 0
        self.client.subscribe(f"{HEALTH_TOPIC_PREFIX}/#", self._on_summary)

    def _on_summary(self, event: NBEvent) -> None:
        summary = event.payload
        if not isinstance(summary, ClusterHealthSummary):
            return
        self.summaries_received += 1
        window = self.history.get(summary.cluster_id)
        if window is None:
            window = self.history[summary.cluster_id] = deque(
                maxlen=self.history_limit
            )
        if window and window[-1].at >= summary.at:
            self.duplicate_summaries += 1
            return
        window.append(summary)
        prefix = f"cluster.{summary.cluster_id}"
        at = summary.at
        self.store.record(f"{prefix}.outbox_depth", at, summary.outbox_depth())
        self.store.record(f"{prefix}.worst_state", at, summary.worst_state())
        self.store.record(
            f"{prefix}.delivery_p99_s", at, summary.sketch.quantile(0.99)
        )
        self.store.record(
            f"{prefix}.events_delivered",
            at,
            summary.counters.get("events_delivered", 0),
        )

    # ------------------------------------------------------------ queries

    def clusters_seen(self) -> List[str]:
        return sorted(self.history)

    def latest(self, cluster_id: str) -> Optional[ClusterHealthSummary]:
        window = self.history.get(cluster_id)
        return window[-1] if window else None

    def broker_rows(self) -> Dict[str, BrokerHealth]:
        """Latest condensed row per broker, across every cluster."""
        rows: Dict[str, BrokerHealth] = {}
        for window in self.history.values():
            if window:
                for row in window[-1].brokers:
                    rows[row.broker_id] = row
        return rows

    def cluster_broker_ids(self, cluster_id: str) -> List[str]:
        """Broker ids the cluster's newest summary reports (geo reports
        group these by region via the cluster → region mapping)."""
        summary = self.latest(cluster_id)
        if summary is None:
            return []
        return sorted(row.broker_id for row in summary.brokers)

    def fleet_sketch(self) -> Histogram:
        """Fleet-wide delivery-latency histogram (clusters merged again)."""
        return Histogram("delivery_latency_s").merge(
            *(window[-1].sketch for window in self.history.values() if window)
        )

    def fleet_quantile(self, q: float) -> float:
        return self.fleet_sketch().quantile(q)

    def fleet_counters(self) -> Dict[str, float]:
        return merge_counter_totals(
            window[-1].counters
            for window in self.history.values()
            if window
        )

    def stale_clusters(self, timeout_s: Optional[float] = None) -> List[str]:
        """Clusters whose newest summary is older than ``timeout_s`` —
        the cluster-level analogue of a silent broker (both gateways
        down, or the overlay path to the console severed)."""
        horizon = self.sim.now - (
            timeout_s if timeout_s is not None else self.stale_timeout_s
        )
        return sorted(
            cluster_id
            for cluster_id, window in self.history.items()
            if window and window[-1].at < horizon
        )

    @property
    def stale_broker_count(self) -> int:
        """Gauge: brokers flagged stale by their own cluster gateway."""
        return sum(
            len(window[-1].stale_brokers)
            for window in self.history.values()
            if window
        )


class TelemetryPlane:
    """Builds and owns the telemetry machinery for one broker fabric.

    Delta monitors on every broker, :class:`ClusterHealthAggregator`
    roles and one :class:`FleetMonitor` console.  A clustered fabric
    scopes samples per cluster and runs an aggregator on each gateway
    broker; a flat fabric is the one-cluster case — samples on
    ``/narada/monitor/<broker>`` and a single aggregator, on the
    console's anchor broker, publishing as :data:`FLAT_SCOPE`.

    Construct via :meth:`repro.broker.network.BrokerNetwork.attach_telemetry`
    after the topology is built, then :meth:`start`.  The fabric calls
    :meth:`rebind` when it restarts a broker.
    """

    def __init__(
        self,
        fabric,
        sample_interval_s: float = 1.0,
        stale_timeout_s: Optional[float] = None,
        console_name: str = "fleet-console",
    ):
        self.fabric = fabric
        self.sample_interval_s = sample_interval_s
        self.stale_timeout_s = (
            stale_timeout_s
            if stale_timeout_s is not None
            else 3.0 * sample_interval_s
        )
        self.monitors: List[BrokerMonitor] = []
        self.aggregators: List[ClusterHealthAggregator] = []

        local_brokers = [
            fabric._brokers[name] for name in sorted(fabric._brokers)
        ]
        if not local_brokers:
            raise ValueError("attach_telemetry needs at least one broker")
        for broker in local_brokers:
            cluster_id = fabric.cluster_of(broker.broker_id)
            self.monitors.append(
                BrokerMonitor(
                    broker,
                    interval_s=sample_interval_s,
                    topic=monitor_topic(broker.broker_id, cluster_id),
                )
            )
        spec = fabric.spec
        if spec.clusters is None:
            scopes = {FLAT_SCOPE: [local_brokers[0]]}
        else:
            scopes = {
                cluster_id: [
                    fabric.broker(name) for name in spec.gateways(cluster_id)
                ]
                for cluster_id in sorted(spec.clusters)
            }
        for cluster_id, gateways in scopes.items():
            for gateway in gateways:
                self.aggregators.append(
                    ClusterHealthAggregator(
                        gateway,
                        cluster_id,
                        interval_s=sample_interval_s,
                        stale_timeout_s=self.stale_timeout_s,
                    )
                )
        anchor = self.aggregators[0].broker
        # The console must outlive its anchor: keepalive probes the
        # connection, the other gateways serve as failover targets
        # (the failover replays the /narada/health/# subscription).
        fallbacks = []
        seen_brokers = {anchor.broker_id}
        for aggregator in self.aggregators:
            gateway = aggregator.broker
            if gateway.broker_id not in seen_brokers:
                seen_brokers.add(gateway.broker_id)
                fallbacks.append(gateway)
        self.fleet = FleetMonitor(
            fabric.network.create_host(console_name),
            anchor,
            client_id=console_name,
            stale_timeout_s=max(self.stale_timeout_s, 3.0 * sample_interval_s),
            failover=Failover(fallbacks, keepalive_s=sample_interval_s),
        )

    def start(self) -> None:
        for monitor in self.monitors:
            monitor.start()
        for aggregator in self.aggregators:
            aggregator.start()

    def stop(self) -> None:
        for monitor in self.monitors:
            monitor.stop()
        for aggregator in self.aggregators:
            aggregator.stop()

    def rebind(self, broker: Broker) -> None:
        """Move the roles riding a restarted broker onto its new object:
        its monitor samples the live counters and its aggregator (if it
        is a gateway) reads the live election, both through clients
        reconnected to it."""
        for role in (*self.monitors, *self.aggregators):
            if role.broker.broker_id == broker.broker_id:
                role.rebind(broker)

    # ---------------------------------------------------------- accounting

    def console_ingress(self) -> int:
        """Messages the top-level console has received — the O() figure
        the hierarchical plane exists to shrink."""
        return self.fleet.summaries_received

    def samples_published(self) -> int:
        return sum(monitor.samples_published for monitor in self.monitors)

    def sample_bytes_published(self) -> int:
        return sum(
            monitor.sample_bytes_published for monitor in self.monitors
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TelemetryPlane monitors={len(self.monitors)} "
            f"aggregators={len(self.aggregators)}>"
        )
