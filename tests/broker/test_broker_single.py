"""Single-broker pub/sub behaviour over UDP links."""

import pytest

from repro.broker import Broker, BrokerClient, LinkType
from repro.simnet.link import LinkProfile

from tests.broker.conftest import make_client


def test_connect_handshake(net, sim, single_broker):
    client = make_client(net, sim, single_broker, "c1")
    assert client.broker_id == "b0"
    assert single_broker.client_count() == 1


def test_publish_reaches_subscriber(net, sim, single_broker):
    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = make_client(net, sim, single_broker, "sub")
    got = []
    subscriber.subscribe("/news", got.append)
    sim.run_for(1.0)
    publisher.publish("/news", "hello", 100)
    sim.run_for(1.0)
    assert len(got) == 1
    assert got[0].payload == "hello"
    assert got[0].source == "pub"


def test_no_local_echo_to_publisher(net, sim, single_broker):
    client = make_client(net, sim, single_broker, "c1")
    got = []
    client.subscribe("/room", got.append)
    sim.run_for(1.0)
    client.publish("/room", "my own message", 50)
    sim.run_for(1.0)
    assert got == []


def test_wildcard_subscription(net, sim, single_broker):
    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = make_client(net, sim, single_broker, "sub")
    got = []
    subscriber.subscribe("/session/*/video", lambda e: got.append(e.topic))
    sim.run_for(1.0)
    publisher.publish("/session/1/video", b"v", 100)
    publisher.publish("/session/2/video", b"v", 100)
    publisher.publish("/session/1/audio", b"a", 100)
    sim.run_for(1.0)
    assert sorted(got) == ["/session/1/video", "/session/2/video"]


def test_fanout_to_many_subscribers(net, sim, single_broker):
    publisher = make_client(net, sim, single_broker, "pub")
    receivers = []
    counts = {}
    for i in range(20):
        client = make_client(net, sim, single_broker, f"r{i:02d}")
        counts[client.client_id] = 0

        def handler(event, cid=client.client_id):
            counts[cid] += 1

        client.subscribe("/media", handler)
        receivers.append(client)
    sim.run_for(1.0)
    for _ in range(5):
        publisher.publish("/media", b"pkt", 500)
    sim.run_for(2.0)
    assert all(count == 5 for count in counts.values()), counts


def test_unsubscribe_stops_delivery(net, sim, single_broker):
    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = make_client(net, sim, single_broker, "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    publisher.publish("/t", 1, 10)
    sim.run_for(1.0)
    subscriber.unsubscribe("/t")
    sim.run_for(1.0)
    publisher.publish("/t", 2, 10)
    sim.run_for(1.0)
    assert [e.payload for e in got] == [1]


def test_disconnect_removes_client_and_subscriptions(net, sim, single_broker):
    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = make_client(net, sim, single_broker, "sub")
    subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    subscriber.disconnect()
    sim.run_for(1.0)
    assert single_broker.client_count() == 1
    publisher.publish("/t", 1, 10)
    sim.run_for(1.0)
    assert single_broker.events_delivered == 0


def test_publish_before_connected_is_queued(net, sim, single_broker):
    subscriber = make_client(net, sim, single_broker, "sub")
    got = []
    subscriber.subscribe("/early", got.append)
    sim.run_for(1.0)

    host = net.create_host("eager")
    eager = BrokerClient(host, client_id="eager")
    eager.connect(single_broker)
    eager.publish("/early", "queued", 10)  # before ConnectAck arrives
    sim.run_for(1.0)
    assert [e.payload for e in got] == ["queued"]


def test_a_connect_ack_after_disconnect_does_not_revive_the_client(
    net, sim, single_broker
):
    """The broker's ConnectAck can land after ``disconnect()``, while the
    old socket still receives for a moment before it closes.  It must not
    mark the client connected: there is no transport left to flush the
    queued publish through."""
    client = BrokerClient(net.create_host("hasty"), client_id="hasty")
    client.connect(single_broker)
    client.publish("/t", "queued", 10)  # waits for the ConnectAck
    client.disconnect()
    sim.run_for(1.0)
    assert not client.connected and client.broker_id is None


def test_a_late_connect_ack_does_not_take_over_the_next_connect(
    net, sim, single_broker
):
    """``connect(A); disconnect(); connect(B)`` with B far away: A's
    ConnectAck reaches the given-up socket first.  The client must wait
    for B's ack instead of calling itself connected to A."""
    far = Broker(
        net.create_host("far-host", link=LinkProfile(latency_s=0.1)),
        broker_id="far",
    )
    client = BrokerClient(net.create_host("hasty"), client_id="hasty")
    client.connect(single_broker)
    client.disconnect()
    client.connect(far)
    sim.run_for(0.04)
    assert not client.connected and client.broker_id is None
    sim.run_for(2.0)
    assert client.connected and client.broker_id == "far"


def test_duplicate_connect_replaces_link(net, sim, single_broker):
    client_a = make_client(net, sim, single_broker, "same-id")
    host = net.create_host("other-host")
    client_b = BrokerClient(host, client_id="same-id")
    client_b.connect(single_broker)
    sim.run_for(1.0)
    assert single_broker.client_count() == 1


def test_broker_stats_count_routing(net, sim, single_broker):
    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = make_client(net, sim, single_broker, "sub")
    subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    for _ in range(3):
        publisher.publish("/t", b"", 10)
    sim.run_for(1.0)
    assert single_broker.events_routed == 3
    assert single_broker.events_delivered == 3


def test_two_brokers_same_host_port_clash_avoided(net, sim):
    host_a = net.create_host("ha")
    host_b = net.create_host("hb")
    Broker(host_a, broker_id="x")
    Broker(host_b, broker_id="y")  # distinct hosts: no clash


def test_event_delay_includes_broker_path(net, sim, single_broker):
    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = make_client(net, sim, single_broker, "sub")
    delays = []
    subscriber.subscribe(
        "/t", lambda e: delays.append(sim.now - e.published_at)
    )
    sim.run_for(1.0)
    publisher.publish("/t", b"x" * 10, 1000)
    sim.run_for(1.0)
    assert len(delays) == 1
    # Two network hops + broker routing/send costs: strictly positive,
    # well under a second on a LAN.
    assert 0.0 < delays[0] < 0.1


def test_unsubscribe_one_handler_keeps_shared_subscription(net, sim, single_broker):
    """Two handlers share a pattern: removing one must not tear down the
    broker-side subscription the other still relies on."""
    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = make_client(net, sim, single_broker, "sub")
    first, second = [], []
    handler_a = first.append
    handler_b = second.append
    subscriber.subscribe("/t", handler_a)
    subscriber.subscribe("/t", handler_b)
    sim.run_for(1.0)
    publisher.publish("/t", 1, 10)
    sim.run_for(1.0)
    assert len(first) == len(second) == 1

    subscriber.unsubscribe("/t", handler_a)
    sim.run_for(1.0)
    assert single_broker.has_local_subscription("/t", "sub")
    publisher.publish("/t", 2, 10)
    sim.run_for(1.0)
    assert len(first) == 1  # removed handler is silent
    assert len(second) == 2  # surviving handler still delivers

    subscriber.unsubscribe("/t", handler_b)  # last one: withdraw for real
    sim.run_for(1.0)
    assert not single_broker.has_local_subscription("/t", "sub")
    publisher.publish("/t", 3, 10)
    sim.run_for(1.0)
    assert len(second) == 2


def test_duplicate_subscribe_shares_one_retry_timer(net, sim, single_broker):
    """Subscribing the same pattern twice before the first SubscribeAck
    arrives must not double up retry timers or deliveries."""
    from repro.broker import BrokerClient

    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = BrokerClient(net.create_host("sub"), client_id="sub")
    subscriber.connect(single_broker)
    sim.run_for(1.0)
    first, second = [], []
    subscriber.subscribe("/t", first.append)
    subscriber.subscribe("/t", second.append)  # ack still in flight
    assert len(subscriber._subscribe_timers) == 1
    sim.run_for(2.0)  # ack lands, retry timer cancelled
    assert subscriber._subscribe_timers is None  # and the table let go
    publisher.publish("/t", "x", 10)
    sim.run_for(1.0)
    assert len(first) == 1 and len(second) == 1


def test_subscribe_retries_survive_lossy_control_path(net, sim):
    """The duplicate-subscribe race under loss: retries keep firing from
    the single shared timer until the broker acknowledges."""
    from repro.broker import Broker, BrokerClient
    from repro.simnet import LinkProfile

    broker = Broker(net.create_host("bh"), broker_id="b0")
    publisher = make_client(net, sim, broker, "pub")
    lossy = net.create_host("lossy-sub", link=LinkProfile(loss_rate=0.6))
    subscriber = BrokerClient(lossy, client_id="sub")
    subscriber.connect(broker)
    sim.run_for(15.0)
    assert subscriber.connected
    first, second = [], []
    subscriber.subscribe("/t", first.append)
    subscriber.subscribe("/t", second.append)
    sim.run_for(20.0)  # retries push the Subscribe through the loss
    assert subscriber.subscribe_acks >= 1
    assert subscriber._subscribe_timers is None
    assert broker.has_local_subscription("/t", "sub")


def test_an_unsubscribe_never_overtakes_its_subscribe():
    """On a jittery link the Unsubscribe of a just-made subscription
    could arrive first, be dropped as unknown, and leave the late
    Subscribe holding a pattern the client gave up.  It goes out with
    the SubscribeAck instead, so no seed leaves the pattern held."""
    from repro.simnet import Network, SeededStreams, Simulator

    jittery = LinkProfile(latency_s=0.001, jitter_s=0.002)  # 2 ms ± 1 ms
    held = 0
    for seed in range(40):
        sim = Simulator()
        net = Network(sim, SeededStreams(seed))
        broker = Broker(net.create_host("bh", link=jittery), broker_id="b0")
        client = make_client(
            net, sim, broker, "sub", host=net.create_host("sub", link=jittery)
        )
        client.subscribe("/t", lambda event: None)
        client.unsubscribe("/t")
        sim.run_for(2.0)
        held += broker.has_local_subscription("/t", "sub")
    assert held == 0


def test_a_resubscribe_before_the_ack_keeps_the_subscription(net, sim, single_broker):
    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = make_client(net, sim, single_broker, "sub")
    got = []
    subscriber.subscribe("/t", lambda event: None)
    subscriber.unsubscribe("/t")  # waits for the SubscribeAck
    subscriber.subscribe("/t", got.append)  # and is called off
    sim.run_for(1.0)
    assert single_broker.has_local_subscription("/t", "sub")
    publisher.publish("/t", 1, 10)
    sim.run_for(1.0)
    assert [event.payload for event in got] == [1]


def test_non_positive_reap_timeout_is_rejected(net):
    """``reap_timeout_s=0.0`` used to arm the reaper with a ``None``
    delay and die inside the kernel; now the argument is named."""
    from repro.broker import Broker

    host = net.create_host("bh")
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="reap_timeout_s"):
            Broker(host, broker_id="b0", reap_timeout_s=bad)
