"""Multi-broker routing: adverts, shortest paths, duplicate-free delivery."""

import pytest

from repro.broker import Broker, BrokerClient, BrokerNetwork, Failover
from repro.broker.links import SubAdvert

from tests.broker.conftest import assert_maintained_state, make_client


def connected_client(net, sim, broker, name):
    return make_client(net, sim, broker, name)


def test_two_broker_delivery(net, sim):
    bnet = BrokerNetwork.chain(net, 2)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    subscriber = connected_client(net, sim, bnet.broker("broker-1"), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    publisher.publish("/t", "across", 100)
    sim.run_for(1.0)
    assert [e.payload for e in got] == ["across"]


def test_no_forwarding_without_remote_interest(net, sim):
    bnet = BrokerNetwork.chain(net, 2)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    local_sub = connected_client(net, sim, bnet.broker("broker-0"), "sub")
    local_sub.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    publisher.publish("/t", "local only", 100)
    sim.run_for(1.0)
    assert bnet.broker("broker-0").events_forwarded == 0
    assert bnet.broker("broker-1").events_routed == 0


def test_multihop_chain_delivery(net, sim):
    bnet = BrokerNetwork.chain(net, 5)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    subscriber = connected_client(net, sim, bnet.broker("broker-4"), "sub")
    got = []
    subscriber.subscribe("/far", got.append)
    sim.run_for(1.0)
    publisher.publish("/far", "multi-hop", 100)
    sim.run_for(1.0)
    assert len(got) == 1
    # Intermediate brokers forwarded but did not deliver locally.
    assert bnet.broker("broker-2").events_delivered == 0
    assert bnet.broker("broker-2").events_forwarded >= 1


def test_exactly_once_delivery_star_topology(net, sim):
    bnet = BrokerNetwork.star(net, leaves=4)
    publisher = connected_client(net, sim, bnet.broker("broker-hub"), "pub")
    counts = {}
    for i in range(4):
        subscriber = connected_client(net, sim, bnet.broker(f"broker-{i}"), f"s{i}")
        counts[f"s{i}"] = 0
        subscriber.subscribe(
            "/t", lambda e, k=f"s{i}": counts.__setitem__(k, counts[k] + 1)
        )
    sim.run_for(1.0)
    for _ in range(3):
        publisher.publish("/t", b"x", 100)
    sim.run_for(1.0)
    assert all(count == 3 for count in counts.values()), counts


def test_hierarchical_topology_connects_all(net, sim):
    bnet = BrokerNetwork.hierarchical(net, [3, 3, 2])
    brokers = bnet.broker_ids()
    assert len(brokers) == 8
    publisher = connected_client(net, sim, bnet.broker(brokers[0]), "pub")
    subscriber = connected_client(net, sim, bnet.broker(brokers[-1]), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    publisher.publish("/t", "hier", 100)
    sim.run_for(1.0)
    assert len(got) == 1


def test_late_topology_join_learns_subscriptions(net, sim):
    bnet = BrokerNetwork(net)
    bnet.add_broker("a")
    bnet.add_broker("b")
    subscriber = connected_client(net, sim, bnet.broker("b"), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    # Connect the brokers only after the subscription exists.
    bnet.connect("a", "b")
    sim.run_for(1.0)
    publisher = connected_client(net, sim, bnet.broker("a"), "pub")
    publisher.publish("/t", "late", 100)
    sim.run_for(1.0)
    assert [e.payload for e in got] == ["late"]


def test_unsubscribe_withdraws_remote_interest(net, sim):
    bnet = BrokerNetwork.chain(net, 2)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    subscriber = connected_client(net, sim, bnet.broker("broker-1"), "sub")
    subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    subscriber.unsubscribe("/t")
    sim.run_for(1.0)
    publisher.publish("/t", b"x", 100)
    sim.run_for(1.0)
    assert bnet.broker("broker-0").events_forwarded == 0


def test_wildcard_interest_propagates(net, sim):
    bnet = BrokerNetwork.chain(net, 3)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    subscriber = connected_client(net, sim, bnet.broker("broker-2"), "sub")
    got = []
    subscriber.subscribe("/session/*/video", lambda e: got.append(e.topic))
    sim.run_for(1.0)
    publisher.publish("/session/7/video", b"v", 100)
    publisher.publish("/session/7/audio", b"a", 100)
    sim.run_for(1.0)
    assert got == ["/session/7/video"]


def spy_advert_sends(broker, sent):
    """Record every SubAdvert the broker pushes to a peer."""
    original = broker._send_peer

    def wrapper(peer_id, message):
        if isinstance(message, SubAdvert):
            sent.append((broker.broker_id, peer_id))
        return original(peer_id, message)

    broker._send_peer = wrapper


def test_advert_not_echoed_back_to_source_peer(net, sim):
    """Refloods skip the peer the advert arrived from.

    In a 3-broker chain a subscription at one end needs exactly two
    advert transmissions (one per edge); echoing back to the source adds
    two wasted control messages per advert that the receivers then have
    to deduplicate.
    """
    bnet = BrokerNetwork.chain(net, 3)
    sent = []
    for name in bnet.broker_ids():
        spy_advert_sends(bnet.broker(name), sent)
    subscriber = make_client(net, sim, bnet.broker("broker-2"), "sub")
    subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    assert sent == [("broker-2", "broker-1"), ("broker-1", "broker-0")]
    # And the advert was processed exactly once per broker: the connect
    # and subscribe land on broker-2, the advert on the other two.
    assert bnet.broker("broker-0").control_messages == 1
    assert bnet.broker("broker-1").control_messages == 1


def test_disconnect_edge_recomputes_routes(net, sim):
    bnet = BrokerNetwork(net)
    for name in ("a", "b", "c"):
        bnet.add_broker(name)
    bnet.connect("a", "b")
    bnet.connect("b", "c")
    bnet.connect("a", "c")
    subscriber = connected_client(net, sim, bnet.broker("c"), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    bnet.disconnect("a", "c")  # force the a->b->c path
    publisher = connected_client(net, sim, bnet.broker("a"), "pub")
    publisher.publish("/t", "rerouted", 100)
    sim.run_for(1.0)
    assert len(got) == 1
    assert bnet.broker("b").events_forwarded >= 1


def test_restarted_central_broker_gets_routes(net, sim):
    """A broker restarted on the central plane is re-peered and handed a
    route table, so a publisher on it reaches a subscriber elsewhere."""
    bnet = BrokerNetwork.chain(net, 3)
    subscriber = connected_client(net, sim, bnet.broker("broker-0"), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    bnet.crash_broker("broker-1")
    restarted = bnet.restart_broker("broker-1")
    assert restarted._routes == {"broker-0": "broker-0", "broker-2": "broker-2"}
    publisher = connected_client(net, sim, restarted, "pub")
    for index in range(5):
        publisher.publish("/t", index, 100)
    sim.run_for(1.0)
    assert sorted(event.payload for event in got) == [0, 1, 2, 3, 4]


def test_crash_keeps_outbox_overflows_monotone(net, sim):
    """``outbox_overflows`` counts evictions from live *and* closed
    outboxes; closing the broker itself must fold the live ones in
    instead of dropping them back to zero."""
    bnet = BrokerNetwork.single(net, "b0")
    broker = bnet.broker("b0")
    publisher = connected_client(net, sim, broker, "pub")
    subscriber = connected_client(net, sim, broker, "sub")
    subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    # A subscriber that stops acking, behind a 3-deep outbox: 8 reliable
    # events evict the 5 oldest.
    net.set_path_blocked("b0", "sub", True)
    # Made here, before the client's first reliable event would make it.
    broker._outbox(broker._clients["sub"]).max_pending = 3
    for index in range(8):
        publisher.publish("/t", index, 100, reliable=True)
    sim.run_for(0.2)
    assert broker.statistics()["outbox_overflows"] == 5
    bnet.crash_broker("b0")
    assert broker.statistics()["outbox_overflows"] == 5


def test_outbox_depth_tally_survives_client_churn(net, sim):
    """``_outbox_depth()`` is a tally the outboxes keep, not a scan: it
    must equal the per-client sum after overflow eviction, a client
    reconnecting over its old record, an outbox abandon and a crash."""
    bnet = BrokerNetwork.single(net, "b0")
    broker = bnet.broker("b0")
    publisher = connected_client(net, sim, broker, "pub")
    subscribers = [
        connected_client(net, sim, broker, f"sub-{n}") for n in range(3)
    ]
    for subscriber in subscribers:
        subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)

    def burst(count):
        for index in range(count):
            publisher.publish("/t", index, 100, reliable=True)
        sim.run_for(0.2)

    burst(5)
    sim.run_for(1.0)
    assert broker._outbox_depth() == 0  # everything acknowledged
    for subscriber in subscribers:  # all three stop acking
        net.set_path_blocked("b0", subscriber.client_id, True)
    broker._clients["sub-0"].outbox.max_pending = 3
    burst(8)
    assert broker._outbox_depth() == 3 + 8 + 8
    assert broker.statistics()["outbox_overflows"] == 5
    assert_maintained_state([broker])

    net.set_path_blocked("b0", "sub-1", False)
    subscribers[1].reconnect(broker)  # replaces a record holding 8 pending
    sim.run_for(1.0)
    assert broker._outbox_depth() == 3 + 8
    assert_maintained_state([broker])
    burst(2)
    assert broker._outbox_depth() == 3 + 10  # sub-1 acks again
    assert broker.statistics()["outbox_overflows"] == 7  # sub-0 evicted two more
    assert_maintained_state([broker])

    sim.run_for(20.0)  # retries exhaust: sub-0 and sub-2 are dropped
    assert broker.outbox_abandons == 2
    assert broker.client_ids() == ["pub", "sub-1"]
    assert broker._outbox_depth() == 0
    assert_maintained_state([broker])

    net.set_path_blocked("b0", "sub-1", True)
    burst(4)
    assert broker._outbox_depth() == 4
    bnet.crash_broker("b0")
    assert broker._outbox_depth() == 0
    assert broker.statistics()["outbox_overflows"] == 7  # closed outboxes count
    assert_maintained_state([broker])


def test_outbox_depth_tally_survives_reaping(net, sim):
    broker = Broker(
        net.create_host("broker-host"), broker_id="b0", reap_timeout_s=1.0
    )
    publisher = make_client(
        net, sim, broker, "pub", failover=Failover(keepalive_s=0.25)
    )
    victim = connected_client(net, sim, broker, "victim")
    victim.subscribe("/t", lambda e: None)
    sim.run_for(0.2)
    net.set_path_blocked("broker-host", "victim", True)
    for index in range(6):
        publisher.publish("/t", index, 100, reliable=True)
    sim.run_for(0.2)
    assert broker._outbox_depth() == 6
    sim.run_for(3.0)  # the silent victim is reaped with six pending
    assert broker.clients_reaped == 1
    assert broker.client_ids() == ["pub"]
    assert broker._outbox_depth() == 0
    assert_maintained_state([broker])
