"""Self-healing broker mesh: the substrate survives without a supervisor.

PR 2 made *clients* failure-aware; these scenarios verify the *mesh* is:
brokers detect dead peers via heartbeat silence, repair routes via
flooded link-state adverts, and reconcile subscriptions across healed
partitions — no central BrokerNetwork route push involved anywhere.

Every scenario runs a 4–5 broker ring in autonomous mode with fast
liveness (0.25 s beats, 2 misses → dead in ~0.5–0.75 s).
"""

import pytest

from repro.broker import FAST_MESH, BrokerClient, BrokerNetwork, LinkType
from repro.simnet import Firewall, HttpTunnelProxy, Network, SeededStreams, Simulator

def ring(seed=7, count=5):
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    bnet = BrokerNetwork.ring(net, count, mesh=FAST_MESH)
    sim.run_for(2.0)  # LSA flood converges initial routes
    return sim, net, bnet


def attach(net, sim, bnet, name, broker_name, **kwargs):
    client = BrokerClient(net.create_host(f"{name}-host"), client_id=name, **kwargs)
    client.connect(bnet.broker(broker_name))
    sim.run_for(0.5)
    assert client.connected
    return client


def total_leaks(bnet):
    """Sum of subscription-state entries across all brokers."""
    return sum(
        broker.statistics()["local_subscriptions"]
        + broker.statistics()["remote_interest"]
        for broker in bnet.brokers()
    )


def test_single_link_cut_reroutes_media():
    sim, net, bnet = ring(seed=11)
    publisher = attach(net, sim, bnet, "pub", "broker-0")
    subscriber = attach(net, sim, bnet, "sub", "broker-1")
    got = []
    subscriber.subscribe("/conf/video", lambda e: got.append(e.payload))
    sim.run_for(0.5)

    # Media flows over the direct 0<->1 edge.
    publisher.publish("/conf/video", "direct", 200)
    sim.run_for(0.5)
    assert got == ["direct"]
    assert bnet.broker("broker-0")._routes["broker-1"] == "broker-1"

    # The edge is silently blackholed; brokers must notice and reroute.
    bnet.cut_link("broker-0", "broker-1")
    sim.run_for(3.0)
    b0 = bnet.broker("broker-0")
    assert b0.peers_evicted == 1
    assert b0._routes["broker-1"] == "broker-4"  # the long way round

    publisher.publish("/conf/video", "rerouted", 200)
    sim.run_for(1.0)
    assert got == ["direct", "rerouted"]


def test_broker_crash_detected_and_routed_around():
    sim, net, bnet = ring(seed=12)
    publisher = attach(net, sim, bnet, "pub", "broker-0")
    subscriber = attach(net, sim, bnet, "sub", "broker-3")
    got = []
    subscriber.subscribe("/conf/audio", lambda e: got.append(e.payload))
    sim.run_for(0.5)
    # Shortest path 0->3 runs through broker-4.
    assert bnet.broker("broker-0")._routes["broker-3"] == "broker-4"

    bnet.crash_broker("broker-4")  # un-announced kill
    sim.run_for(3.0)
    for survivor in bnet.brokers():
        assert "broker-4" not in survivor._routes
        assert survivor.statistics()["remote_interest"] <= 1
    # Both former neighbours declared it dead by heartbeat silence.
    assert bnet.broker("broker-0").peers_evicted == 1
    assert bnet.broker("broker-3").peers_evicted == 1

    publisher.publish("/conf/audio", "after-crash", 200)
    sim.run_for(1.0)
    assert got == ["after-crash"]


def test_partition_with_publishers_on_both_sides_then_heal():
    """2|3 split: each island keeps serving its own clients, purges the
    other island's interest, and the heal restores cross-mesh delivery
    with zero leaked entries."""
    sim, net, bnet = ring(seed=13)
    pub_a = attach(net, sim, bnet, "pub-a", "broker-0")
    pub_b = attach(net, sim, bnet, "pub-b", "broker-2")
    sub_a = attach(net, sim, bnet, "sub-a", "broker-1")
    sub_b = attach(net, sim, bnet, "sub-b", "broker-3")
    got_a, got_b = [], []
    sub_a.subscribe("/conf/x", lambda e: got_a.append(e.payload))
    sub_b.subscribe("/conf/x", lambda e: got_b.append(e.payload))
    sim.run_for(1.0)

    bnet.partition([["broker-0", "broker-1", "broker-4"], ["broker-2", "broker-3"]])
    sim.run_for(2.5)
    # Each island converged to island-only routes and purged the other
    # side's interest.
    assert set(bnet.broker("broker-0")._routes) == {"broker-1", "broker-4"}
    assert set(bnet.broker("broker-2")._routes) == {"broker-3"}
    assert bnet.broker("broker-3").statistics()["remote_interest"] == 0

    got_a.clear(), got_b.clear()
    pub_a.publish("/conf/x", "island-a", 100)
    pub_b.publish("/conf/x", "island-b", 100)
    sim.run_for(1.0)
    # Intra-island delivery continues; nothing crosses the cut.
    assert got_a == ["island-a"]
    assert got_b == ["island-b"]

    bnet.heal()
    sim.run_for(3.0)
    got_a.clear(), got_b.clear()
    pub_a.publish("/conf/x", "healed-a", 100)
    pub_b.publish("/conf/x", "healed-b", 100)
    sim.run_for(1.0)
    assert sorted(got_a) == ["healed-a", "healed-b"]
    assert sorted(got_b) == ["healed-a", "healed-b"]

    # Zero-leak round trip: tear everything down and count entries.
    sub_a.unsubscribe("/conf/x")
    sub_b.unsubscribe("/conf/x")
    sim.run_for(2.0)
    assert total_leaks(bnet) == 0


def test_heal_re_elects_sequencer_for_ordered_topics():
    """Ordered topics stay usable across a partition: each island
    sequences with its own elected broker, and the subscriber's inbox
    adopts the re-elected sequencer instead of stalling."""
    sim, net, bnet = ring(seed=14)
    # /conf/ord hashes to a sequencer; put publishers on both sides.
    pub_a = attach(net, sim, bnet, "pub-a", "broker-0")
    pub_b = attach(net, sim, bnet, "pub-b", "broker-2")
    sub_b = attach(net, sim, bnet, "sub-b", "broker-3")
    got = []
    sub_b.subscribe("/conf/ord", lambda e: got.append(e.payload))
    sim.run_for(1.0)

    def publish_spaced(client, prefix):
        # Spaced out so jitter cannot reorder the requests *before* the
        # sequencer stamps them (arrival order at the sequencer defines
        # the total order; the inbox then enforces it end-to-end).
        for i in range(3):
            client.publish("/conf/ord", f"{prefix}-{i}", 100, ordered=True)
            sim.run_for(0.05)

    publish_spaced(pub_b, "pre")
    sim.run_for(1.0)
    assert got == ["pre-0", "pre-1", "pre-2"]

    full_mesh_sequencer = bnet.broker("broker-0").ordering.sequencer_for(
        "/conf/ord"
    )

    bnet.partition([["broker-0", "broker-1", "broker-4"], ["broker-2", "broker-3"]])
    sim.run_for(2.5)
    island_sequencer = bnet.broker("broker-2").ordering.sequencer_for(
        "/conf/ord"
    )
    assert island_sequencer in {"broker-2", "broker-3"}

    got.clear()
    publish_spaced(pub_b, "mid")
    sim.run_for(1.0)
    assert got == ["mid-0", "mid-1", "mid-2"]
    if island_sequencer != full_mesh_sequencer:
        # The island elected a fresh sequencer; the inbox noticed.
        assert sub_b._ordered_inbox.sequencer_changes >= 1

    bnet.heal()
    sim.run_for(3.0)
    # Everyone agrees on one sequencer again and ordering still works,
    # including from the far side of the former cut.
    sequencers = {
        broker.ordering.sequencer_for("/conf/ord")
        for broker in bnet.brokers()
    }
    assert len(sequencers) == 1
    got.clear()
    publish_spaced(pub_a, "post")
    sim.run_for(1.5)
    assert got == ["post-0", "post-1", "post-2"]


def test_slow_link_is_not_declared_dead():
    """Heartbeat false-positive guard: a peer behind a suddenly slow WAN
    path keeps beating — late, but within the miss budget — and must not
    be evicted."""
    sim, net, bnet = ring(seed=15, count=4)
    # 0<->1 becomes a 150 ms path: beats arrive late but regularly.
    net.set_path_latency("broker-0", "broker-1", 0.15)
    sim.run_for(5.0)
    b0, b1 = bnet.broker("broker-0"), bnet.broker("broker-1")
    assert b0.peers_evicted == 0
    assert b1.peers_evicted == 0
    assert b0.has_peer("broker-1") and b1.has_peer("broker-0")
    assert b0._routes["broker-1"] == "broker-1"


def test_tunnel_client_rides_out_broker_peer_failure():
    """A firewalled subscriber on an HTTP tunnel keeps receiving after
    the mesh reroutes around a dead broker-peer (the client's own broker
    stays up; only the mesh path behind it changes)."""
    sim, net, bnet = ring(seed=16)
    proxy = HttpTunnelProxy(net.create_host("proxy-host"), 8080)
    inside = net.create_host("inside")
    Firewall().attach(inside)
    subscriber = BrokerClient(inside, client_id="tunneled")
    subscriber.connect(
        bnet.broker("broker-3"), link_type=LinkType.HTTP_TUNNEL,
        proxy=proxy.address,
    )
    sim.run_for(1.0)
    assert subscriber.connected

    got = []
    subscriber.subscribe("/conf/video", lambda e: got.append(e.payload))
    publisher = attach(net, sim, bnet, "pub", "broker-0")
    sim.run_for(1.0)
    publisher.publish("/conf/video", "before", 200)
    sim.run_for(1.0)
    assert got == ["before"]

    # Kill the transit broker on the 0->3 shortest path, un-announced.
    assert bnet.broker("broker-0")._routes["broker-3"] == "broker-4"
    bnet.crash_broker("broker-4")
    sim.run_for(3.0)

    publisher.publish("/conf/video", "after", 200)
    sim.run_for(1.5)
    assert got == ["before", "after"]
    assert subscriber.connected  # the tunnel itself never dropped
