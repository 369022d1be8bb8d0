"""Geo-distributed federation (DESIGN.md §12).

Covers the three tentpole behaviours of the geo mode on small flat
meshes: cost-weighted WAN routing (configured latency classes steer
Dijkstra away from transoceanic hops, jitter never flaps a route),
locality-aware sequencer pinning (the election migrates to the broker
contributing a sustained majority of a topic's publishes), and regional
partition survival (the minority side parks ordered topics instead of
forking sequence numbers, reliable cross-region traffic queues bounded,
and a heal drains everything exactly once).
"""

import pytest

from repro.broker import FAST_MESH, BrokerClient, BrokerNetwork, FabricSpec, Failover
from repro.broker.geo import SEQUENCER_PIN_WINDOW

def geo_mesh(net, regions, edges):
    """A flat autonomous mesh with every broker assigned to a region."""
    bnet = BrokerNetwork(net, FabricSpec(mesh=FAST_MESH, regions=regions))
    for members in regions.values():
        for name in members:
            bnet.add_broker(name)
    for a, b in edges:
        bnet.connect(a, b)
    return bnet


def make_client(net, broker, name, failover=None):
    client = BrokerClient(net.create_host(name), client_id=name, failover=failover)
    client.connect(broker)
    return client


def topic_with_sequencer(broker, wanted, prefix="/geo/t"):
    """A topic whose hash election (as seen by ``broker``) picks
    ``wanted`` — the hash is stable, so scanning indices is fine."""
    for index in range(256):
        topic = f"{prefix}{index}"
        if broker.ordering.sequencer_for(topic) == wanted:
            return topic
    raise AssertionError(f"no topic elects {wanted}")


# -------------------------------------------------- cost-weighted routing


def test_expensive_edge_loses_to_cheap_multihop_path(sim, net):
    """A direct transoceanic peer link (class 16) must lose to a
    three-hop intra-continental path (class 3) once LSAs carry costs."""
    # Square: b0-b1-b2-b3-b0, with the b0<->b3 closing edge configured
    # as a 100 ms WAN path *before* any LSA is originated.
    net.set_path_latency("b0", "b3", 0.100)
    bnet = geo_mesh(
        net,
        {"us": ["b0", "b1", "b2", "b3"]},
        [("b0", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b0")],
    )
    sim.run_for(3.0)
    b0 = bnet.broker("b0")
    assert b0._routes["b3"] == "b1", "route should avoid the 100 ms edge"
    assert bnet.broker("b3")._routes["b0"] == "b2"
    # The advertised class comes from *configured* latency only.
    assert b0.mesh.member.advertised_costs["b3"] == 16
    assert b0.mesh.member.advertised_costs["b1"] == 1


def test_geo_disabled_takes_the_direct_edge(sim, net):
    """Same square without regions: unit-weight Dijkstra goes direct —
    the cost plane is strictly opt-in."""
    net.set_path_latency("b0", "b3", 0.100)
    bnet = BrokerNetwork(net, FabricSpec(mesh=FAST_MESH))
    for name in ("b0", "b1", "b2", "b3"):
        bnet.add_broker(name)
    for a, b in (("b0", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b0")):
        bnet.connect(a, b)
    sim.run_for(3.0)
    b0 = bnet.broker("b0")
    assert b0._routes["b3"] == "b3"
    assert b0.mesh.member.advertised_costs == {}


def test_cost_class_change_reoriginates_but_jitter_never_does(sim, net):
    """Routes re-originate only when a *configured* latency crosses a
    class boundary; steady-state jittery traffic must not flap."""
    bnet = geo_mesh(
        net,
        {"us": ["b0", "b1", "b2"]},
        [("b0", "b1"), ("b1", "b2"), ("b2", "b0")],
    )
    sim.run_for(3.0)
    b0 = bnet.broker("b0")
    before = b0.cost_reoriginations
    sim.run_for(5.0)  # many anti-entropy ticks, nothing configured changed
    assert b0.cost_reoriginations == before
    # Now reclassify one adjacency: 50 ms lands in the <=60 ms class.
    net.set_path_latency("b0", "b1", 0.050)
    sim.run_for(3.0)
    assert b0.cost_reoriginations > before
    assert b0.mesh.member.advertised_costs["b1"] == 8


def test_new_link_is_no_cost_change(sim, net):
    """A link that comes up in the instant of an anti-entropy check is
    advertised by the origination it already scheduled, with its cost
    class: the check finds nothing to re-originate."""
    net.set_path_latency("b0", "b2", 0.100)
    bnet = geo_mesh(net, {"us": ["b0", "b1", "b2"]}, [("b0", "b1"), ("b1", "b2")])
    sim.run_for(3.0)
    b0 = bnet.broker("b0")
    originated = b0.lsas_originated
    bnet.connect("b0", "b2")
    b0.mesh.member.recost()
    sim.run_for(0.1)
    assert b0.cost_reoriginations == 0
    assert b0.lsas_originated == originated + 1
    assert b0.mesh.member.advertised_costs == {"b1": 1, "b2": 16}


def test_gateway_tier_reoriginates_when_cost_classes_change(sim, net):
    """Region latencies configured after a clustered geo fabric came up
    move only overlay adjacencies.  The anti-entropy check must refresh
    the gateway LSA too, or the overlay keeps pricing a 100 ms ocean
    crossing at class 1 and routes straight across it."""
    bnet = BrokerNetwork.clustered(
        net, [2, 2, 2], regions=["us", "eu", "ap"], mesh=FAST_MESH
    )
    sim.run_for(10.0)
    net.set_region_latency("us", "eu", 0.100)
    net.set_region_latency("us", "ap", 0.005)
    net.set_region_latency("eu", "ap", 0.005)
    sim.run_for(20.0)
    gateway = bnet.broker("broker-c0-0")
    assert gateway.cost_reoriginations > 0
    # us → ap → eu costs 2 + 2, the direct crossing 16.
    assert gateway._routes["broker-c1-0"] == "broker-c2-0"
    _, neighbors, costs, _ = gateway.gateway.overlay.table["broker-c0-0"]
    assert costs == gateway.mesh.cost_classes(neighbors) == {
        "broker-c0-1": 1,
        "broker-c1-0": 16, "broker-c1-1": 16,
        "broker-c2-0": 2, "broker-c2-1": 2,
    }


# ------------------------------------------------- locality-aware pinning


def test_sequencer_pin_migrates_to_publisher_majority(sim, net):
    """After a full pin window of ordered publishes from one broker, the
    sequencer re-pins next to the publisher and ordering survives the
    handoff (sequence numbers continue, no gaps, no reorder)."""
    bnet = geo_mesh(
        net,
        {"us": ["g0", "g1", "g2"]},
        [("g0", "g1"), ("g1", "g2"), ("g2", "g0")],
    )
    sim.run_for(3.0)
    g0 = bnet.broker("g0")
    # A topic whose initial election lands away from the publisher.
    topic = topic_with_sequencer(g0, "g1")
    old_sequencer = bnet.broker("g1")

    received = []
    subscriber = make_client(net, bnet.broker("g2"), "sub")
    subscriber.subscribe(topic, lambda event: received.append(event.payload))
    publisher = make_client(net, g0, "pub")
    sim.run_for(1.0)

    total = SEQUENCER_PIN_WINDOW + 16
    for index in range(total):
        sim.schedule_at(
            5.0 + index * 0.01, publisher.publish, topic, index, 200,
            False, True,  # reliable=False, ordered=True
        )
    sim.run_for(4.0)

    assert old_sequencer.sequencer_pins_set >= 1
    for name in ("g0", "g1", "g2"):
        assert bnet.broker(name).ordering.sequencer_for(topic) == "g0"
    # Exactly once, in publish order, across the pin handoff.
    assert received == list(range(total))


# ------------------------------------------- regional partition survival


def town_hall(sim, net):
    """Five brokers over two regions with a subscriber on each side."""
    bnet = geo_mesh(
        net,
        {"us": ["u0", "u1"], "eu": ["e0", "e1", "e2"]},
        [
            ("u0", "u1"),
            ("e0", "e1"), ("e1", "e2"), ("e2", "e0"),
            ("u0", "e0"), ("u1", "e1"),
        ],
    )
    net.set_region_latency("us", "eu", 0.045, loss_rate=0.0)
    sim.run_for(4.0)
    return bnet


def test_minority_parks_ordered_topic_and_heal_drains_exactly_once(sim, net):
    bnet = town_hall(sim, net)
    u0 = bnet.broker("u0")
    # An ordered topic whose stable (full-set) sequencer sits in Europe.
    topic = topic_with_sequencer(u0, "e0", prefix="/town/t")

    us_seen, eu_seen = [], []
    us_sub = make_client(net, bnet.broker("u1"), "us-sub")
    us_sub.subscribe(topic, lambda event: us_seen.append(event.payload))
    eu_sub = make_client(net, bnet.broker("e2"), "eu-sub")
    eu_sub.subscribe(topic, lambda event: eu_seen.append(event.payload))
    publisher = make_client(net, u0, "pub")
    sim.run_for(2.0)

    bnet.partition_regions("us")
    sim.run_for(2.0)  # heartbeat eviction: the us side sees 2 of 5
    assert u0.geo.in_minority()

    for index in range(20):
        publisher.publish(topic, index, 200, ordered=True)
        sim.run_for(0.05)
    sim.run_for(1.0)
    # Parked, not forked: the minority refused to elect a local
    # sequencer while the pre-partition one is presumed alive in eu.
    assert u0.ordered_parked >= 20
    assert us_seen == [] and eu_seen == []
    assert net.blackholed_packets > 0

    bnet.heal()
    sim.run_for(6.0)
    assert u0.ordered_park_drained >= 20
    # The drain bursts 20 sequencing requests over a jittery WAN, so the
    # *publish* order may be permuted — but sequencing still guarantees
    # exactly-once and one consistent total order on every continent.
    assert sorted(us_seen) == list(range(20)), "exactly once"
    assert sorted(eu_seen) == list(range(20)), "exactly once"
    assert us_seen == eu_seen, "one total order on both continents"


def test_reliable_cross_region_traffic_queues_and_drains_exactly_once(
    sim, net
):
    bnet = town_hall(sim, net)
    u0 = bnet.broker("u0")
    topic = "/town/media"

    us_seen, eu_seen = [], []
    us_sub = make_client(net, bnet.broker("u1"), "us-sub")
    us_sub.subscribe(topic, lambda event: us_seen.append(event.payload))
    eu_sub = make_client(net, bnet.broker("e2"), "eu-sub")
    eu_sub.subscribe(topic, lambda event: eu_seen.append(event.payload))
    publisher = make_client(net, u0, "pub")
    sim.run_for(2.0)

    bnet.partition_regions("us")
    sim.run_for(2.0)

    for index in range(15):
        publisher.publish(topic, index, 400, reliable=True)
        sim.run_for(0.05)
    sim.run_for(1.0)
    # Intra-region flow never stalls; the transoceanic leg parks.
    assert us_seen == list(range(15))
    assert eu_seen == []
    assert u0.wan_parked >= 1

    bnet.heal()
    sim.run_for(6.0)
    assert u0.wan_park_drained >= 1
    # Plain reliable events carry no sequencing, so a burst drain may
    # arrive permuted — but the inbox dedup makes the heal exactly-once.
    assert sorted(eu_seen) == list(range(15)), "exactly once after heal"
    assert us_seen == list(range(15)), "no duplicates from the drain"


def test_a_reliable_event_lost_on_a_wan_link_is_resent_until_acked(
    sim, net
):
    """WAN paths drop datagrams.  The first copy of one reliable event
    over the u0–e0 link is lost: u0 resends it until e0 acks, so the
    subscriber behind e0 still gets every event exactly once."""
    bnet = town_hall(sim, net)
    u0, e0 = bnet.broker("u0"), bnet.broker("e0")
    topic = "/town/wan"
    eu_seen = []
    eu_sub = make_client(net, bnet.broker("e2"), "eu-sub")
    eu_sub.subscribe(topic, lambda event: eu_seen.append(event.payload))
    publisher = make_client(net, u0, "pub")
    sim.run_for(2.0)

    lost = []

    def lossy(payload, src, datagram):
        event = getattr(payload, "event", None)
        if event is not None and event.payload == 2 and not lost:
            lost.append(event)
            return
        e0._on_peer_message(payload, src, datagram)

    e0._peer_socket.on_receive(lossy)
    for index in range(5):
        publisher.publish(topic, index, 200, reliable=True)
        sim.run_for(0.05)
    sim.run_for(2.0)
    assert lost, "the WAN link never carried event 2"
    assert sorted(eu_seen) == list(range(5)), "exactly once"
    outbox = u0.geo.wan_outboxes["e0"]
    assert outbox.retransmissions >= 1 and outbox.pending_count == 0


def test_reliable_events_sent_into_a_silent_cut_drain_at_the_heal(sim, net):
    """Events forwarded over a WAN link after the cable is cut but
    before heartbeats evict the peer are never acked: the link-down
    parks them, and the heal delivers each exactly once."""
    bnet = town_hall(sim, net)
    u0 = bnet.broker("u0")
    topic = "/town/cut"
    eu_seen = []
    eu_sub = make_client(net, bnet.broker("e2"), "eu-sub")
    eu_sub.subscribe(topic, lambda event: eu_seen.append(event.payload))
    publisher = make_client(net, u0, "pub")
    sim.run_for(2.0)

    bnet.partition_regions("us")
    for index in range(5):  # inside the eviction window
        publisher.publish(topic, index, 200, reliable=True)
        sim.run_for(0.02)
    sim.run_for(2.0)
    assert eu_seen == [] and u0.wan_parked >= 5
    assert u0.geo.wan_outboxes == {}

    bnet.heal()
    sim.run_for(6.0)
    assert sorted(eu_seen) == list(range(5)), "exactly once after heal"


def test_majority_side_keeps_sequencing_during_partition(sim, net):
    """The eu side still reaches 3 of 5 stable brokers — it is not in
    the minority and ordered topics sequenced there keep flowing."""
    bnet = town_hall(sim, net)
    e0 = bnet.broker("e0")
    topic = topic_with_sequencer(e0, "e1", prefix="/town/m")

    eu_seen = []
    eu_sub = make_client(net, bnet.broker("e2"), "eu-sub")
    eu_sub.subscribe(topic, lambda event: eu_seen.append(event.payload))
    publisher = make_client(net, e0, "pub")
    sim.run_for(2.0)

    bnet.partition_regions("us")
    sim.run_for(2.0)
    assert not e0.geo.in_minority()

    for index in range(10):
        publisher.publish(topic, index, 200, ordered=True)
        sim.run_for(0.05)
    sim.run_for(1.0)
    assert eu_seen == list(range(10))
    assert e0.ordered_parked == 0


def test_pin_set_during_a_partition_is_repaired_across_the_heal(sim, net):
    """The eu majority pins a topic while the us region is cut off.  No
    flood can carry that pin across the cut, so after the heal the
    link-state digest must: every broker then holds the same pin and
    elects the same sequencer."""
    bnet = town_hall(sim, net)
    e2 = bnet.broker("e2")
    topic = topic_with_sequencer(e2, "e1", prefix="/town/p")
    publisher = make_client(net, e2, "pub")
    sim.run_for(1.0)

    bnet.partition_regions("us")
    sim.run_for(2.0)
    for index in range(SEQUENCER_PIN_WINDOW + 8):
        publisher.publish(topic, index, 200, ordered=True)
        sim.run_for(0.01)
    sim.run_for(1.0)
    assert e2.geo.pinned_sequencer(topic) == "e2"
    assert bnet.broker("u0").geo.pinned_sequencer(topic) is None

    bnet.heal()
    sim.run_for(10.0)
    assert {
        name: (
            bnet.broker(name).geo.pinned_sequencer(topic),
            bnet.broker(name).ordering.sequencer_for(topic),
        )
        for name in bnet.broker_ids()
    } == {name: ("e2", "e2") for name in bnet.broker_ids()}


# -------------------------------------------- sequencer cache regression


def test_sequencer_cache_invalidated_the_instant_a_peer_returns(sim, net):
    """Regression: the election cache used to validate against the
    debounced broker-set epoch, so a cached during-partition election
    could be served for a beat after the link was already re-peered.
    ``_routes_gen`` bumps synchronously in ``add_peer``, closing that
    window."""
    bnet = BrokerNetwork(net, FabricSpec(mesh=FAST_MESH))
    for name in ("b0", "b1"):
        bnet.add_broker(name)
    bnet.connect("b0", "b1")
    sim.run_for(2.0)
    b0 = bnet.broker("b0")
    topic = topic_with_sequencer(b0, "b1")

    bnet.cut_link("b0", "b1")
    sim.run_for(2.0)  # eviction: b1 is gone, the election falls back
    assert b0.ordering.sequencer_for(topic) == "b0"

    bnet.restore_link("b0", "b1")
    # No simulated time passes: the re-peer alone (add_peer →
    # _peers_changed, before the debounced route recompute) must already
    # mark the cached fallback election stale.
    assert b0.has_peer("b1")
    assert b0.ordering.elections_gen != b0._routes_gen
    sim.run_for(2.0)  # route recompute + LSA exchange complete the heal
    assert b0.ordering.sequencer_for(topic) == "b1"


# ------------------------------------------------------- regional pinning


def test_rtp_proxy_region_pin_prefers_local_failover_candidates(sim, net):
    from repro.broker.rtp_proxy import RtpProxy

    bnet = geo_mesh(
        net,
        {"us": ["u0", "u1"], "eu": ["e0"]},
        [("u0", "u1"), ("u1", "e0")],
    )
    sim.run_for(2.0)
    proxy = RtpProxy(
        net.create_host("proxy-host"),
        bnet.broker("u0"),
        "proxy-1",
        failover=Failover(
            [bnet.broker("e0"), bnet.broker("u1"), bnet.broker("u0")],
            keepalive_s=0.5,
        ),
        region="us",
    )
    assert [b.broker_id for b in proxy.client.failover.brokers] == [
        "u1", "u0", "e0",
    ]


def test_broker_network_region_bookkeeping(sim, net):
    bnet = geo_mesh(
        net,
        {"us": ["u0"], "eu": ["e0"]},
        [("u0", "e0")],
    )
    assert bnet.spec.region_of("u0") == "us"
    assert net.region_of("u0") == "us"
    assert bnet.spec.region_of("missing") is None
    sim.run_for(1.0)
    bnet.partition_regions("us", "eu")
    assert net.region_blocked("us", "eu")
    bnet.heal()
    assert not net.region_blocked("us", "eu")


# ------------------------------------- busy hints vs cross-region failover


def test_busy_hint_does_not_floor_failover_to_another_region(sim, net):
    """A Busy(retry_after) hint measures one regional broker's capacity;
    when candidate rotation moves to a broker in *another* region the
    hint must be discarded, not floor that attempt's delay."""
    bnet = geo_mesh(net, {"us": ["u0"], "eu": ["e0"]}, [("u0", "e0")])
    sim.run_for(2.0)
    client = make_client(
        net, bnet.broker("u0"), "roamer",
        failover=Failover([bnet.broker("u0"), bnet.broker("e0")]),
    )
    sim.run_for(1.0)

    # White-box: mid-reconnect, u0 just answered Busy(retry_after=5).
    client._reconnecting = True
    client._failover_backoff.note_retry_after(5.0)
    client._busy_hint_source = client._broker
    client._schedule_failover_attempt()
    # The rotation excludes the current broker, so the candidate is e0 —
    # a different region: the attempt fires immediately, not in 5 s.
    assert client._failover_timer.time == sim.now


def test_busy_hint_still_floors_retry_toward_the_same_broker(sim, net):
    bnet = geo_mesh(net, {"us": ["u0"]}, [])
    sim.run_for(1.0)
    client = make_client(
        net, bnet.broker("u0"), "loyal", failover=Failover([bnet.broker("u0")])
    )
    sim.run_for(1.0)

    client._reconnecting = True
    client._failover_backoff.note_retry_after(5.0)
    client._busy_hint_source = client._broker
    client._schedule_failover_attempt()
    # Only candidate is the busy broker itself: honor its estimate.
    assert client._failover_timer.time == sim.now + 5.0
