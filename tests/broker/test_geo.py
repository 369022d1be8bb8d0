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

from repro.broker import BrokerClient, BrokerNetwork
from repro.broker.broker import SEQUENCER_PIN_WINDOW

HB = 0.25
MISS = 2


def geo_mesh(net, regions, edges):
    """A flat autonomous mesh with every broker assigned to a region."""
    bnet = BrokerNetwork(
        net,
        autonomous=True,
        peer_heartbeat_interval_s=HB,
        peer_miss_limit=MISS,
        regions=regions,
    )
    for members in regions.values():
        for name in members:
            bnet.add_broker(name)
    for a, b in edges:
        bnet.connect(a, b)
    return bnet


def make_client(net, broker, name):
    client = BrokerClient(net.create_host(name), client_id=name)
    client.connect(broker)
    return client


def topic_with_sequencer(broker, wanted, prefix="/geo/t"):
    """A topic whose hash election (as seen by ``broker``) picks
    ``wanted`` — the hash is stable, so scanning indices is fine."""
    for index in range(256):
        topic = f"{prefix}{index}"
        if broker.sequencer_for(topic) == wanted:
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
    assert b0._advertised_costs["b3"] == 16
    assert b0._advertised_costs["b1"] == 1


def test_geo_disabled_takes_the_direct_edge(sim, net):
    """Same square without regions: unit-weight Dijkstra goes direct —
    the cost plane is strictly opt-in."""
    net.set_path_latency("b0", "b3", 0.100)
    bnet = BrokerNetwork(
        net, autonomous=True,
        peer_heartbeat_interval_s=HB, peer_miss_limit=MISS,
    )
    for name in ("b0", "b1", "b2", "b3"):
        bnet.add_broker(name)
    for a, b in (("b0", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b0")):
        bnet.connect(a, b)
    sim.run_for(3.0)
    b0 = bnet.broker("b0")
    assert b0._routes["b3"] == "b3"
    assert b0._advertised_costs == {}


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
    assert b0._advertised_costs["b1"] == 8


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
        assert bnet.broker(name).sequencer_for(topic) == "g0"
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
    assert u0._in_minority()

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
    assert not e0._in_minority()

    for index in range(10):
        publisher.publish(topic, index, 200, ordered=True)
        sim.run_for(0.05)
    sim.run_for(1.0)
    assert eu_seen == list(range(10))
    assert e0.ordered_parked == 0


# -------------------------------------------- sequencer cache regression


def test_sequencer_cache_invalidated_the_instant_a_peer_returns(sim, net):
    """Regression: the election cache used to validate against the
    debounced broker-set epoch, so a cached during-partition election
    could be served for a beat after the link was already re-peered.
    ``_routes_gen`` bumps synchronously in ``add_peer``, closing that
    window."""
    bnet = BrokerNetwork(
        net, autonomous=True,
        peer_heartbeat_interval_s=HB, peer_miss_limit=MISS,
    )
    for name in ("b0", "b1"):
        bnet.add_broker(name)
    bnet.connect("b0", "b1")
    sim.run_for(2.0)
    b0 = bnet.broker("b0")
    topic = topic_with_sequencer(b0, "b1")

    bnet.cut_link("b0", "b1")
    sim.run_for(2.0)  # eviction: b1 is gone, the election falls back
    assert b0.sequencer_for(topic) == "b0"

    bnet.restore_link("b0", "b1")
    # No simulated time passes: the re-peer alone (add_peer →
    # _peers_changed, before the debounced route recompute) must already
    # mark the cached fallback election stale.
    assert b0.has_peer("b1")
    assert b0._sequencer_epoch != b0._routes_gen
    sim.run_for(2.0)  # route recompute + LSA exchange complete the heal
    assert b0.sequencer_for(topic) == "b1"


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
        keepalive_interval_s=0.5,
        failover_brokers=[
            bnet.broker("e0"), bnet.broker("u1"), bnet.broker("u0"),
        ],
        region="us",
    )
    assert [b.broker_id for b in proxy.client._failover_brokers] == [
        "u1", "u0", "e0",
    ]


def test_broker_network_region_bookkeeping(sim, net):
    bnet = geo_mesh(
        net,
        {"us": ["u0"], "eu": ["e0"]},
        [("u0", "e0")],
    )
    assert bnet.region_of("u0") == "us"
    assert net.region_of("u0") == "us"
    assert bnet.region_of("missing") is None
    sim.run_for(1.0)
    bnet.partition_regions("us", "eu")
    assert net.region_blocked("us", "eu")
    bnet.heal()
    assert not net.region_blocked("us", "eu")


def test_regions_require_the_autonomous_plane(sim, net):
    """Geo brokers keep interest from unreachable brokers (the WAN park
    needs it), so on the central plane ``remove_broker`` could never
    release a dead broker's interest — the combination is rejected, as
    ``clusters=`` without ``autonomous=True`` already is."""
    with pytest.raises(ValueError, match="regions= requires autonomous"):
        BrokerNetwork(net, regions={"us": ["u0"], "eu": ["e0"]})
    with pytest.raises(ValueError, match="regions= requires autonomous"):
        BrokerNetwork.chain(
            net, 3, regions={"us": ["broker-0", "broker-1"], "eu": ["broker-2"]}
        )


# ------------------------------------- busy hints vs cross-region failover


def test_busy_hint_does_not_floor_failover_to_another_region(sim, net):
    """A Busy(retry_after) hint measures one regional broker's capacity;
    when candidate rotation moves to a broker in *another* region the
    hint must be discarded, not floor that attempt's delay."""
    bnet = geo_mesh(net, {"us": ["u0"], "eu": ["e0"]}, [("u0", "e0")])
    sim.run_for(2.0)
    client = make_client(net, bnet.broker("u0"), "roamer")
    sim.run_for(1.0)
    client.set_failover_brokers([bnet.broker("u0"), bnet.broker("e0")])

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
    client = make_client(net, bnet.broker("u0"), "loyal")
    sim.run_for(1.0)
    client.set_failover_brokers([bnet.broker("u0")])

    client._reconnecting = True
    client._failover_backoff.note_retry_after(5.0)
    client._busy_hint_source = client._broker
    client._schedule_failover_attempt()
    # Only candidate is the busy broker itself: honor its estimate.
    assert client._failover_timer.time == sim.now + 5.0
