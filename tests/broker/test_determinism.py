"""Bit-identical determinism: same seed in, same delivery trace out.

Every canonical scenario here — one lossy/jittery broker, a 5-ring
chaos run, the cluster tier, geo mode, the telemetry plane — is pinned
to a golden digest of its full delivery trace (event ids, sequence
numbers and delivery times to the last bit, not summaries).  The
digests were recorded while each fast path (batched kernel drain,
zero-copy fan-out, route cache) still had a slow twin that produced
the same trace; the twins are gone, the digests are the reference.
Opt-in modes (``clusters=``, ``regions=``, overload control, tracing)
are additionally checked to be inert when off.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.broker import Broker, BrokerClient, BrokerNetwork
from repro.simnet.chaos import ChaosSchedule
from repro.simnet.kernel import Simulator
from repro.simnet.link import LinkProfile
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

from .conftest import assert_maintained_state

#: Enough jitter + loss that RNG draw order differences would show.
FLAKY = LinkProfile(
    bandwidth_bps=10e6, latency_s=0.003, jitter_s=0.002, loss_rate=0.02
)

SEED = 1234

#: sha256 of the canonical delivery trace of each scenario below.  Recorded
#: once, while every fast path still had its slow twin to agree with; a
#: digest changes only with a deliberate change to modeled behaviour.
GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden" / "digests.json").read_text()
)


def trace_digest(trace):
    """sha256 over the trace's canonical JSON: tuples become lists and
    floats print as their shortest round-trip repr, so the digest is the
    same on every CPython and under every ``PYTHONHASHSEED``."""
    canonical = json.dumps(trace, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_workload(events=60, overload_enabled=True, tracer_rate=None):
    """One seeded pub-sub run; returns the full delivery trace.

    Three subscribers (fan-out > 1, so the shared envelope and payload
    freezing both engage), one publisher, plain + ordered
    events, lossy jittery links everywhere.
    """
    from repro.obs.trace import Tracer

    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    broker = Broker(
        net.create_host("broker-host", link=FLAKY),
        broker_id="b0",
        overload_enabled=overload_enabled,
        tracer=Tracer(tracer_rate) if tracer_rate else None,
    )
    trace = []

    def receiver(name):
        def on_event(event):
            trace.append(
                (name, event.event_id, event.sequence, event.topic, sim.now)
            )
        return on_event

    subscribers = []
    for index in range(3):
        name = f"sub-{index}"
        client = BrokerClient(net.create_host(name, link=FLAKY), client_id=name)
        client.connect(broker)
        client.subscribe("/room/#", receiver(name))
        subscribers.append(client)
    publisher = BrokerClient(
        net.create_host("pub-host", link=FLAKY), client_id="pub"
    )
    publisher.connect(broker)
    sim.run(until=1.0)

    def publish_some(index):
        topic = "/room/ctrl" if index % 5 == 0 else "/room/video"
        publisher.publish(
            topic, {"n": index}, 200 + index, ordered=(index % 5 == 0)
        )

    for index in range(events):
        sim.schedule_at(1.0 + index * 0.01, publish_some, index)
    sim.run(until=3.0)
    assert trace, "workload delivered nothing — scenario is broken"
    return normalize(trace, id_field=1)


def normalize(trace, id_field):
    """Rebase event ids: the id counter is process-global, so two
    identical runs see the same id *deltas* at a different offset."""
    base = min(entry[id_field] for entry in trace)
    return [
        entry[:id_field] + (entry[id_field] - base,) + entry[id_field + 1:]
        for entry in trace
    ]


def test_overload_controller_below_watermarks_is_bit_identical():
    """The overload controller is a pure observer under its watermarks:
    with pressure below the degraded marks the enabled run must match a
    run without the controller to the last bit."""
    assert run_workload(overload_enabled=True) == run_workload(
        overload_enabled=False
    )


def flat_mesh_trace(label_regions=False, **network_options):
    """A seeded multi-broker autonomous workload over lossy links; the
    cluster tier must stay completely inert when ``clusters`` is None.

    ``label_regions`` assigns every broker host a simnet region *label*
    without region latency/loss/cuts and without ``regions=`` at the
    broker tier — labels alone must be inert.
    """
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    collection = BrokerNetwork.ring(
        net, 4, link=FLAKY, autonomous=True,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
        **network_options,
    )
    if label_regions:
        for index in range(4):
            net.set_region(f"broker-{index}", "us" if index < 2 else "eu")
    trace = []
    client = BrokerClient(net.create_host("sub", link=FLAKY), client_id="sub")
    client.connect(collection.broker("broker-0"))
    client.subscribe(
        "/room/#",
        lambda event: trace.append((event.event_id, event.topic, sim.now)),
    )
    publisher = BrokerClient(net.create_host("pub", link=FLAKY), client_id="pub")
    publisher.connect(collection.broker("broker-2"))
    sim.run(until=3.0)
    for index in range(40):
        sim.schedule_at(
            3.0 + index * 0.01, publisher.publish, "/room/video", index, 300
        )
    sim.run(until=6.0)
    assert trace
    for broker in collection.brokers():
        # Not one cluster-plane branch may fire in flat mode.
        assert broker.cluster_id is None
        assert broker.adverts_aggregated == 0
        assert broker.cluster_lsas_scoped == 0
        assert broker.intercluster_hops == 0
        assert broker.gateway_takeovers == 0
    return normalize(trace, id_field=0)


def test_clusters_none_is_bit_identical_to_flat_mesh():
    """Passing ``clusters=None`` explicitly must be *exactly* the flat
    mesh — same event ids, sequence deltas, and delivery times."""
    assert flat_mesh_trace(clusters=None) == flat_mesh_trace()


def test_regions_none_is_bit_identical_to_flat_mesh():
    """``regions=None`` explicitly must be *exactly* the geo-unaware
    fabric: no cost plane, no pins, no parking, same trace to the bit."""
    assert flat_mesh_trace(regions=None) == flat_mesh_trace()


def test_region_labels_alone_are_bit_identical():
    """Simnet region labels without region latency/loss/cuts (and with
    no ``regions=`` at the broker tier) take zero extra RNG draws."""
    assert flat_mesh_trace(label_regions=True) == flat_mesh_trace()


def chaos_ring_trace():
    """A seeded 5-ring autonomous run through a link flap, a broker
    crash + restart and a 2|3 partition + heal, publishing throughout
    (every fifth event ordered, so sequencer re-election is in the
    trace).  Exercises link-state origination, stale/echo handling and
    digest anti-entropy."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    collection = BrokerNetwork.ring(
        net, 5, link=FLAKY, autonomous=True,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
    )
    chaos = ChaosSchedule(collection, seed=SEED)
    chaos.link_flap(4.0, "broker-0", "broker-1", down_for=1.5)
    chaos.crash_broker(6.0, "broker-3", restart_after=2.0)
    chaos.partition(
        9.0,
        [["broker-0", "broker-1"], ["broker-2", "broker-3", "broker-4"]],
        heal_after=1.5,
    )
    trace = []
    client = BrokerClient(net.create_host("sub", link=FLAKY), client_id="sub")
    client.connect(collection.broker("broker-0"))
    client.subscribe(
        "/room/#",
        lambda event: trace.append((event.event_id, event.topic, sim.now)),
    )
    publisher = BrokerClient(net.create_host("pub", link=FLAKY), client_id="pub")
    publisher.connect(collection.broker("broker-2"))
    sim.run(until=3.0)
    for index in range(450):
        sim.schedule_at(
            3.0 + index * 0.02, publisher.publish, "/room/video", index, 300,
            False, (index % 5 == 0),
        )
    sim.run(until=13.0)
    assert len(chaos.log) == 6, "a scheduled fault never fired"
    assert trace
    return normalize(trace, id_field=0)


def test_chaos_ring_is_deterministic():
    assert chaos_ring_trace() == chaos_ring_trace()


def geo_mesh_trace(inspect=None):
    """A seeded geo run: two regions with WAN latency/loss between them,
    cost-carrying LSAs, and an ordered topic crossing the ocean."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    collection = BrokerNetwork.ring(
        net, 4, link=FLAKY, autonomous=True,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
        regions={
            "us": ["broker-0", "broker-1"],
            "eu": ["broker-2", "broker-3"],
        },
    )
    net.set_region_latency("us", "eu", 0.045, loss_rate=0.001)
    trace = []
    client = BrokerClient(net.create_host("sub", link=FLAKY), client_id="sub")
    client.connect(collection.broker("broker-0"))
    client.subscribe(
        "/room/#",
        lambda event: trace.append((event.event_id, event.topic, sim.now)),
    )
    publisher = BrokerClient(net.create_host("pub", link=FLAKY), client_id="pub")
    publisher.connect(collection.broker("broker-2"))
    sim.run(until=3.0)
    for index in range(40):
        sim.schedule_at(
            3.0 + index * 0.01, publisher.publish, "/room/video", index, 300,
            False, (index % 4 == 0),
        )
    sim.run(until=6.0)
    assert trace
    if inspect is not None:
        inspect(collection)
    return normalize(trace, id_field=0)


def test_geo_mode_is_deterministic():
    """Cost-weighted routing, WAN loss draws, and sequencer pinning all
    replay bit-identically under the same seed."""
    assert geo_mesh_trace() == geo_mesh_trace()


def clustered_trace(inspect=None):
    """One seeded cross-cluster workload through the full cluster tier."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    collection = BrokerNetwork.clustered(
        net, [3, 3, 3], link=FLAKY,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
    )
    trace = []
    client = BrokerClient(net.create_host("sub", link=FLAKY), client_id="sub")
    client.connect(collection.broker("broker-c0-2"))
    client.subscribe(
        "/room/#",
        lambda event: trace.append((event.event_id, event.topic, sim.now)),
    )
    publisher = BrokerClient(net.create_host("pub", link=FLAKY), client_id="pub")
    publisher.connect(collection.broker("broker-c2-2"))
    sim.run(until=20.0)
    for index in range(40):
        sim.schedule_at(
            20.0 + index * 0.01, publisher.publish, "/room/video", index, 300
        )
    sim.run(until=25.0)
    assert trace
    if inspect is not None:
        inspect(collection)
    return normalize(trace, id_field=0)


def test_clustered_mode_is_deterministic():
    """The gateway overlay (elections, summaries, re-export) replays
    bit-identically under the same seed."""
    assert clustered_trace() == clustered_trace()


def test_tracer_auto_degrade_is_inert_below_watermarks():
    """The tracer's overload gate reads ``overload.state`` without
    refreshing it: in a run where the controller never trips, the
    traced workload must match a controller-less run to the last bit
    (the gate may not perturb sampling decisions or delivery order)."""
    enabled = run_workload(overload_enabled=True, tracer_rate=0.25)
    disabled = run_workload(overload_enabled=False, tracer_rate=0.25)
    assert enabled == disabled


def telemetry_clustered_trace(inspect=None):
    """A clustered workload with the full telemetry plane attached;
    returns both the data-plane delivery trace and a telemetry-plane
    signature (what the console computed)."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    collection = BrokerNetwork.clustered(
        net, [3, 3], link=FLAKY,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
    )
    plane = collection.attach_telemetry(sample_interval_s=0.5)
    plane.start()
    trace = []
    client = BrokerClient(net.create_host("sub", link=FLAKY), client_id="sub")
    client.connect(collection.broker("broker-c0-2"))
    client.subscribe(
        "/room/#",
        lambda event: trace.append((event.event_id, event.topic, sim.now)),
    )
    publisher = BrokerClient(net.create_host("pub", link=FLAKY), client_id="pub")
    publisher.connect(collection.broker("broker-c1-2"))
    sim.run(until=20.0)
    for index in range(40):
        sim.schedule_at(
            20.0 + index * 0.01, publisher.publish, "/room/video", index, 300
        )
    sim.run(until=25.0)
    assert trace
    if inspect is not None:
        inspect(collection)
    fleet = plane.fleet
    signature = (
        fleet.summaries_received,
        fleet.clusters_seen(),
        sorted(fleet.broker_rows()),
        fleet.fleet_quantile(0.99),
        fleet.fleet_counters().get("events_delivered"),
        plane.samples_published(),
        plane.sample_bytes_published(),
    )
    plane.stop()
    return normalize(trace, id_field=0), signature


def test_telemetry_plane_is_deterministic():
    """Monitors, aggregators and the console replay bit-identically:
    same seed → same delivery trace AND same console-side state."""
    assert telemetry_clustered_trace() == telemetry_clustered_trace()


GOLDEN_SCENARIOS = {
    "single_broker": run_workload,
    "chaos_ring5": chaos_ring_trace,
    "clustered": clustered_trace,
    "geo_mesh": geo_mesh_trace,
    "telemetry_plane": telemetry_clustered_trace,
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_SCENARIOS))
def test_trace_matches_golden_digest(scenario):
    """The one reference every fast path is held to: the delivery trace
    of each canonical scenario hashes to the digest recorded under
    ``tests/golden/`` — across runs, interpreters and hash seeds."""
    assert trace_digest(GOLDEN_SCENARIOS[scenario]()) == GOLDEN[scenario]


@pytest.mark.parametrize(
    "scenario", [clustered_trace, geo_mesh_trace, telemetry_clustered_trace]
)
def test_maintained_state_matches_from_scratch_after_scenario(scenario):
    """At the end of the clustered and geo golden scenarios, what the
    brokers keep incrementally (gateway member interest, outbox tally)
    equals what a from-scratch scan derives — standbys included."""
    scenario(
        inspect=lambda collection: assert_maintained_state(collection.brokers())
    )


def test_shared_payload_mutation_is_detected():
    """Fan-out shares one payload across receivers; mutating it must
    fail loudly (freeze-at-fan-out), not silently corrupt peers."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    failures = []

    def mutator(event):
        with pytest.raises(TypeError):
            event.payload["hacked"] = True
        failures.append(event.event_id)

    seen = []
    for index in range(2):
        name = f"sub-{index}"
        client = BrokerClient(net.create_host(name), client_id=name)
        client.connect(broker)
        client.subscribe("/room/#", mutator if index == 0 else seen.append)
    publisher = BrokerClient(net.create_host("pub"), client_id="pub")
    publisher.connect(broker)
    sim.run(until=1.0)
    publisher.publish("/room/video", {"frame": 1}, 500)
    sim.run(until=2.0)

    assert failures, "mutating subscriber never received the event"
    assert seen and seen[0].payload["frame"] == 1  # reads still work


def test_list_and_set_payloads_freeze_too():
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    received = []
    for index in range(2):
        name = f"sub-{index}"
        client = BrokerClient(net.create_host(name), client_id=name)
        client.connect(broker)
        client.subscribe("/room/#", received.append)
    publisher = BrokerClient(net.create_host("pub"), client_id="pub")
    publisher.connect(broker)
    sim.run(until=1.0)
    publisher.publish("/room/a", [1, 2, 3], 100)
    publisher.publish("/room/b", {7, 8}, 100)
    sim.run(until=2.0)

    payloads = {type(event.payload) for event in received}
    assert payloads == {tuple, frozenset}
