"""Broker monitoring service tests.

A :class:`BrokerMonitor` publishes delta samples over the broker itself;
these tests read them with a plain wildcard subscriber, and check the
console-side bookkeeping on :class:`FleetMonitor`.
"""

import types

import pytest

from repro.broker import Broker, BrokerClient, BrokerNetwork, Failover
from repro.broker.monitor import (
    MONITOR_TOPIC_PREFIX,
    BrokerMonitor,
    DeltaSample,
    sample_numbers,
)
from repro.obs.aggregate import ClusterHealthSummary, FleetMonitor
from repro.obs.series import HistogramSketch

from tests.broker.conftest import make_client


def watch(net, broker, name="watch", **options):
    """Subscribe a plain client to every monitor topic; returns the list
    the samples it hears are appended to."""
    samples = []
    client = BrokerClient(net.create_host(f"{name}-host"), client_id=name, **options)
    client.connect(broker)
    client.subscribe(
        f"{MONITOR_TOPIC_PREFIX}/#",
        lambda event: samples.append(event.payload),
    )
    return samples


def latest_numbers(samples, broker_id):
    """One broker's newest counters: every sample carries the absolute
    value of each counter it holds, so applying them in order rebuilds
    the snapshot."""
    numbers = {}
    for sample in samples:
        if sample.broker_id == broker_id:
            numbers.update(sample.counters)
    return numbers


def test_monitor_publishes_samples(net, sim):
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    monitor = BrokerMonitor(broker, interval_s=1.0)
    samples = watch(net, broker)
    sim.run_for(2.0)
    monitor.start()
    sim.run_for(5.5)
    monitor.stop()
    assert {sample.broker_id for sample in samples} == {"b0"}
    assert len(samples) == 5
    assert all(isinstance(s, DeltaSample) for s in samples)
    assert samples[0].full
    # Time advances between samples.
    assert samples[0].at < samples[-1].at


def test_samples_reflect_load(net, sim):
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    monitor = BrokerMonitor(broker, interval_s=1.0)
    samples = watch(net, broker)
    publisher = make_client(net, sim, broker, "pub")
    subscriber = make_client(net, sim, broker, "sub")
    subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    monitor.start()
    for index in range(100):
        sim.schedule(index * 0.05, lambda: publisher.publish("/t", b"x", 100))
    sim.run_for(8.0)
    latest = latest_numbers(samples, "b0")
    assert latest["events_delivered"] >= 100
    # The watcher + pub + sub + the monitor's client.
    assert latest["clients"] == 4
    # Quiet counters are left out of the deltas between full samples.
    assert any(len(s.counters) < len(samples[0].counters) for s in samples)


def test_console_sees_all_brokers_in_network(net, sim):
    bnet = BrokerNetwork.chain(net, 3)
    monitors = [BrokerMonitor(b, interval_s=1.0) for b in bnet.brokers()]
    samples = watch(net, bnet.broker("broker-1"))
    sim.run_for(2.0)
    for monitor in monitors:
        monitor.start()
    sim.run_for(4.0)
    assert {sample.broker_id for sample in samples} == {
        "broker-0", "broker-1", "broker-2"
    }


def test_history_limit_validated(net, sim):
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    with pytest.raises(ValueError):
        FleetMonitor(net.create_host("console-host"), broker, history_limit=1)


def summary(at):
    """A minimal summary from cluster ``c0``, stamped ``at``."""
    return ClusterHealthSummary(
        "c0", "b0", at, int(at), (), {}, HistogramSketch(), (), ()
    )


def fleet_console(net, **options):
    """A console fed by hand; returns it and a ``deliver(payload)``."""
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    fleet = FleetMonitor(net.create_host("console-host"), broker, **options)

    def deliver(payload):
        fleet._on_summary(types.SimpleNamespace(payload=payload))

    return fleet, deliver


def test_history_is_capped_and_drops_counted(net, sim):
    fleet, deliver = fleet_console(net, history_limit=3)
    for at in (1.0, 2.0, 3.0, 4.0, 5.0):
        deliver(summary(at))
    window = fleet.history["c0"]
    # The cap keeps the NEWEST summaries; the evicted ones are counted
    # as received but no longer held.
    assert [s.at for s in window] == [3.0, 4.0, 5.0]
    assert fleet.summaries_received == 5
    assert fleet.summaries_received - len(window) == 2
    assert fleet.duplicate_summaries == 0


def test_duplicate_samples_dropped(net, sim):
    fleet, deliver = fleet_console(net)
    for _ in range(3):  # e.g. redelivered across a console failover
        deliver(summary(5.0))
    assert len(fleet.history["c0"]) == 1
    assert fleet.duplicate_summaries == 2
    deliver("not-a-summary")
    assert len(fleet.history["c0"]) == 1
    assert fleet.summaries_received == 3


def test_monitor_rides_broker_failover(net, sim):
    bnet = BrokerNetwork.chain(net, 2)
    primary = bnet.broker("broker-0")
    backup = bnet.broker("broker-1")
    monitor = BrokerMonitor(
        primary, interval_s=0.5, failover=Failover([backup], keepalive_s=0.25)
    )
    samples = watch(net, backup)
    sim.run_for(1.0)
    monitor.start()
    sim.run_for(2.0)
    seen_before = len(samples)
    assert seen_before >= 2

    # The monitored broker dies un-announced; the monitor's client fails
    # over to the backup and keeps the telemetry stream flowing.
    bnet.crash_broker("broker-0")
    sim.run_for(4.0)
    monitor.stop()
    assert monitor.client.failovers == 1
    assert monitor.client.broker_id == "broker-1"
    assert len(samples) > seen_before
    assert {sample.broker_id for sample in samples} == {"broker-0"}


def test_monitor_observes_client_reaping(net, sim):
    broker = Broker(
        net.create_host("broker-host"), broker_id="b0", reap_timeout_s=1.0
    )
    monitor = BrokerMonitor(
        broker, interval_s=0.5, failover=Failover(keepalive_s=0.25)
    )
    samples = watch(net, broker, failover=Failover(keepalive_s=0.25))
    # A client that subscribes, then goes silent forever (no keepalive).
    victim = make_client(net, sim, broker, "victim")
    victim.subscribe("/t", lambda e: None)
    sim.run_for(0.5)
    monitor.start()
    assert sample_numbers(broker)["local_subscriptions"] == 2

    sim.run_for(5.0)
    monitor.stop()
    latest = latest_numbers(samples, "b0")
    assert latest["clients_reaped"] == 1
    # The corpse's interest was expired with it (the watcher's
    # /narada/monitor sub is the one that remains).
    assert latest["local_subscriptions"] == 1


def test_stop_halts_sampling(net, sim):
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    monitor = BrokerMonitor(broker, interval_s=1.0)
    sim.run_for(1.0)
    monitor.start()
    sim.run_for(3.0)
    monitor.stop()
    count = monitor.samples_published
    assert count == 3
    sim.run_for(3.0)
    assert monitor.samples_published == count
