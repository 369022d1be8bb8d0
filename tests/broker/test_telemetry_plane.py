"""Hierarchical telemetry plane: aggregation, resync, takeover, reports.

End-to-end coverage of DESIGN.md §11: leaf delta monitors publish on
cluster-scoped topics, gateway aggregators merge them into cluster
summaries, the fleet console sees O(clusters) traffic and recovers
fleet percentiles from merged sketches.  Failure paths: sequence-gap
resync via full snapshots, gateway takeover promoting the standby's
aggregator, stale-broker detection when a broker crashes silently, and
the plane following a broker that the fabric restarts.  A flat fabric is
the one-cluster case of the same plane.
"""

import pytest

from repro.broker import Broker, BrokerClient, BrokerNetwork
from repro.broker.monitor import (
    BrokerMonitor,
    DeltaSample,
    monitor_topic,
)
from repro.obs.aggregate import (
    FLAT_SCOPE,
    ClusterHealthAggregator,
    ClusterHealthSummary,
    FleetMonitor,
    health_topic,
)
from repro.obs.report import build_report, render_report

from .conftest import make_client

FAST = dict(peer_heartbeat_interval_s=0.25, peer_miss_limit=2)


def converge(sim, seconds=20.0):
    sim.run_for(seconds)


def make_delta_sample(broker_id, at, seq, full, counters, sketch=None):
    return DeltaSample(broker_id, at, seq, full, counters, sketch)


# --------------------------------------------------------- monitor (delta)


class TestDeltaMonitor:
    def test_delta_monitor_publishes_full_then_deltas(self, net, sim):
        broker = Broker(net.create_host("b-host"), broker_id="b0")
        monitor = BrokerMonitor(broker, interval_s=1.0, full_every=4)
        received = []
        watcher = make_client(net, sim, broker, "watch")
        watcher.subscribe("/narada/monitor/#", received.append)
        monitor.start()
        sim.run_for(6.5)
        monitor.stop()
        samples = [event.payload for event in received]
        assert all(isinstance(sample, DeltaSample) for sample in samples)
        assert samples[0].full  # the first sample re-bases consumers
        # full_every=4: fulls at ticks 1, 5, ... deltas between.
        fulls = [sample.full for sample in samples]
        assert fulls[:5] == [True, False, False, False, True]
        # Sequence numbers are gapless from this monitor.
        assert [sample.seq for sample in samples] == list(
            range(1, len(samples) + 1)
        )
        # Deltas are strictly smaller than fulls on a quiet broker.
        full_size = samples[0].wire_size()
        delta_size = samples[1].wire_size()
        assert delta_size < full_size
        assert monitor.full_samples_published == sum(fulls)
        assert monitor.sample_bytes_published == sum(
            sample.wire_size() for sample in samples
        )

    def test_cluster_scoped_topic(self, net, sim):
        assert monitor_topic("b0") == "/narada/monitor/b0"
        assert monitor_topic("b0", "c1") == "/narada/monitor/c1/b0"
        assert health_topic("c1") == "/narada/health/c1"


# ----------------------------------------------------- aggregator ledgers


class TestAggregatorResync:
    def make_aggregator(self, net, sim):
        broker = Broker(net.create_host("b-host"), broker_id="b0")
        sim.run_for(0.5)
        return ClusterHealthAggregator(broker, "c0", stale_timeout_s=5.0)

    def ingest(self, aggregator, sample):
        import types

        aggregator._on_sample(types.SimpleNamespace(payload=sample))

    def test_in_sequence_deltas_apply(self, net, sim):
        aggregator = self.make_aggregator(net, sim)
        self.ingest(aggregator, make_delta_sample(
            "leaf-0", 1.0, 1, True, {"events_delivered": 10, "clients": 2}))
        self.ingest(aggregator, make_delta_sample(
            "leaf-0", 2.0, 2, False, {"events_delivered": 25}))
        summary = aggregator.build_summary()
        assert isinstance(summary, ClusterHealthSummary)
        assert summary.counters["events_delivered"] == 25
        assert summary.counters["clients"] == 2  # unchanged key retained
        assert summary.unsynced_brokers == ()

    def test_gap_marks_unsynced_until_next_full(self, net, sim):
        aggregator = self.make_aggregator(net, sim)
        self.ingest(aggregator, make_delta_sample(
            "leaf-0", 1.0, 1, True, {"events_delivered": 10}))
        # seq 2 lost; seq 3 arrives — partial state must not be merged.
        self.ingest(aggregator, make_delta_sample(
            "leaf-0", 3.0, 3, False, {"events_delivered": 40}))
        assert aggregator.delta_gaps == 1
        summary = aggregator.build_summary()
        assert summary.unsynced_brokers == ("leaf-0",)
        assert "events_delivered" not in summary.counters  # excluded
        # The next full snapshot re-bases the ledger.
        self.ingest(aggregator, make_delta_sample(
            "leaf-0", 4.0, 4, True, {"events_delivered": 55}))
        assert aggregator.resyncs == 1
        summary = aggregator.build_summary()
        assert summary.unsynced_brokers == ()
        assert summary.counters["events_delivered"] == 55

    def test_delta_before_any_full_stays_unsynced(self, net, sim):
        aggregator = self.make_aggregator(net, sim)
        # An aggregator that starts mid-stream sees a delta first.
        self.ingest(aggregator, make_delta_sample(
            "leaf-0", 5.0, 17, False, {"events_delivered": 99}))
        summary = aggregator.build_summary()
        assert summary.unsynced_brokers == ("leaf-0",)
        self.ingest(aggregator, make_delta_sample(
            "leaf-0", 6.0, 18, True, {"events_delivered": 104}))
        assert aggregator.build_summary().unsynced_brokers == ()

    def test_empty_aggregator_builds_nothing(self, net, sim):
        aggregator = self.make_aggregator(net, sim)
        assert aggregator.build_summary() is None


# ------------------------------------------------------------- integration


class TestClusteredTelemetry:
    def build(self, net, sim, sizes=(3, 3), interval=0.5):
        bnet = BrokerNetwork.clustered(net, list(sizes), **FAST)
        converge(sim)
        plane = bnet.attach_telemetry(sample_interval_s=interval)
        plane.start()
        return bnet, plane

    def test_console_sees_o_clusters_not_o_brokers(self, net, sim):
        bnet, plane = self.build(net, sim, sizes=(3, 3, 3))
        sim.run_for(10.0)
        fleet = plane.fleet
        assert fleet is not None
        assert fleet.clusters_seen() == ["c0", "c1", "c2"]
        # Every broker is represented via its cluster's summary...
        assert len(fleet.broker_rows()) == 9
        for cluster_id in fleet.clusters_seen():
            assert fleet.latest(cluster_id).unsynced_brokers == ()
        # ...but console ingress is per-cluster, not per-broker: over
        # the window each ACTIVE gateway published ~20 summaries while
        # 9 monitors published ~20 samples each.
        assert plane.console_ingress() < plane.samples_published() / 2
        plane.stop()

    def test_fleet_counters_and_sketch_track_traffic(self, net, sim):
        bnet, plane = self.build(net, sim)
        received = []
        subscriber = make_client(net, sim, bnet.broker("broker-c0-2"), "sub")
        subscriber.subscribe("/gmc/video/room", received.append)
        publisher = make_client(net, sim, bnet.broker("broker-c1-2"), "pub")
        sim.run_for(10.0)
        for n in range(20):
            publisher.publish("/gmc/video/room", n, 400)
        sim.run_for(10.0)
        assert len(received) == 20
        fleet = plane.fleet
        counters = fleet.fleet_counters()
        assert counters["events_delivered"] >= 20
        # The merged fleet sketch holds every delivery observation.
        assert fleet.fleet_sketch().count >= 20
        assert fleet.fleet_quantile(0.99) > 0.0
        report = build_report(fleet)
        assert report["fleet"]["brokers"] == 6
        assert report["fleet"]["clusters"] == 2
        assert report["fleet"]["events_delivered"] >= 20
        assert len(report["hot_brokers"]) == 5
        rendered = render_report(report)
        assert "fleet health" in rendered and "hot brokers" in rendered
        plane.stop()

    def test_gateway_takeover_promotes_standby_aggregator(self, net, sim):
        bnet, plane = self.build(net, sim)
        sim.run_for(5.0)
        fleet = plane.fleet
        active = [
            aggregator for aggregator in plane.aggregators
            if aggregator.cluster_id == "c0"
            and aggregator.broker.is_active_gateway
        ]
        standby = [
            aggregator for aggregator in plane.aggregators
            if aggregator.cluster_id == "c0"
            and not aggregator.broker.is_active_gateway
        ]
        assert len(active) == 1 and len(standby) == 1
        assert active[0].summaries_published > 0
        assert standby[0].summaries_published == 0
        assert standby[0].standby_ticks > 0
        # The standby has been ingesting all along (shadow state).
        assert standby[0].samples_ingested > 0

        before = fleet.summaries_received
        bnet.crash_broker(active[0].broker.broker_id)
        sim.run_for(20.0)  # eviction + election + re-advertisement
        assert standby[0].broker.is_active_gateway
        assert standby[0].summaries_published > 0
        # The console kept receiving c0 summaries across the takeover.
        assert fleet.summaries_received > before
        latest = fleet.latest("c0")
        assert latest.origin == standby[0].broker.broker_id
        # The dead gateway stops sampling and is flagged stale; the
        # survivors resynced with the standby via full snapshots.
        assert active[0].broker.broker_id in latest.stale_brokers
        assert fleet.stale_broker_count >= 1
        survivors = set(bnet.clusters["c0"]) - {active[0].broker.broker_id}
        assert survivors - set(latest.unsynced_brokers) == survivors
        plane.stop()


class TestTelemetryFollowsRestart:
    def build(self, net, sim):
        bnet = BrokerNetwork.clustered(net, [3, 3], **FAST)
        sim.run(until=10.0)
        plane = bnet.attach_telemetry(sample_interval_s=0.5)
        plane.start()
        sim.run(until=15.0)
        return bnet, plane

    def test_restarted_leaf_reports_the_live_broker(self, net, sim):
        bnet, plane = self.build(net, sim)
        bnet.crash_broker("broker-c0-2")
        sim.run(until=18.0)
        broker = bnet.restart_broker("broker-c0-2")
        received = []
        subscriber = BrokerClient(net.create_host("sub"), client_id="sub")
        subscriber.connect(broker)
        subscriber.subscribe("/room/video", received.append)
        publisher = BrokerClient(net.create_host("pub"), client_id="pub")
        publisher.connect(bnet.broker("broker-c0-1"))
        sim.run(until=20.0)
        for n in range(50):
            publisher.publish("/room/video", n, 400)
        sim.run(until=40.0)
        assert len(received) == 50
        latest = plane.fleet.latest("c0")
        row = plane.fleet.broker_rows()["broker-c0-2"]
        assert row.synced and "broker-c0-2" not in latest.stale_brokers
        # The row reads the restarted broker, not the closed object:
        # the subscriber and the monitor's reconnected client.
        assert row.clients == broker.client_count() == 2
        assert row.events_delivered == 50
        assert broker.statistics()["events_delivered"] == 50
        plane.stop()

    def test_restarted_gateway_resumes_cluster_summaries(self, net, sim):
        bnet, plane = self.build(net, sim)
        bnet.crash_broker("broker-c0-0")
        sim.run(until=25.0)
        gateway = bnet.restart_broker("broker-c0-0")
        sim.run(until=40.0)
        # Re-elected, so the standby goes quiet: only the restarted
        # gateway's aggregator can keep cluster c0 on the console.
        assert gateway.is_active_gateway
        assert not bnet.broker("broker-c0-1").is_active_gateway
        fleet = plane.fleet
        latest = fleet.latest("c0")
        assert latest.origin == "broker-c0-0"
        assert latest.at >= 39.0
        assert fleet.stale_clusters() == []
        plane.stop()


class TestFlatTelemetry:
    def test_flat_fabric_is_one_cluster(self, net, sim):
        bnet = BrokerNetwork.chain(net, 3)
        sim.run_for(5.0)
        plane = bnet.attach_telemetry(sample_interval_s=0.5)
        # One aggregator, on the console's anchor broker: nothing to elect.
        assert [a.broker.broker_id for a in plane.aggregators] == ["broker-0"]
        assert plane.monitors[2].topic == monitor_topic("broker-2")
        plane.start()
        sim.run_for(5.0)
        fleet = plane.fleet
        assert fleet.clusters_seen() == [FLAT_SCOPE]
        rows = fleet.broker_rows()
        assert sorted(rows) == ["broker-0", "broker-1", "broker-2"]
        assert all(row.synced for row in rows.values())
        assert fleet.latest(FLAT_SCOPE).origin == "broker-0"
        assert plane.console_ingress() == fleet.summaries_received > 0
        plane.stop()

    def test_stale_broker_detection_after_silent_crash(self, net, sim):
        bnet = BrokerNetwork.chain(net, 3)
        sim.run_for(5.0)
        plane = bnet.attach_telemetry(
            sample_interval_s=0.5, stale_timeout_s=2.0
        )
        plane.start()
        sim.run_for(5.0)
        fleet = plane.fleet
        assert fleet.latest(FLAT_SCOPE).stale_brokers == ()
        assert fleet.stale_broker_count == 0

        # A broker dies without a word: its monitor goes silent, and
        # that silence IS the crash signal at the console.
        bnet.crash_broker("broker-2")
        sim.run_for(5.0)
        assert fleet.latest(FLAT_SCOPE).stale_brokers == ("broker-2",)
        assert fleet.stale_broker_count == 1
        # The dead broker keeps its last row; the survivors stay fresh.
        rows = fleet.broker_rows()
        assert rows["broker-2"].at < rows["broker-1"].at - 2.0
        assert fleet.stale_clusters() == []
        plane.stop()
