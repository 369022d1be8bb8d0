"""Broker wire-message and link-type unit tests."""

import pytest

from repro.broker import links
from repro.broker.event import NBEvent
from repro.broker.links import (
    CONTROL_BYTES,
    Busy,
    ClusterDigest,
    ClusterInterestAdvert,
    Connect,
    ConnectAck,
    Disconnect,
    EventAck,
    EventDelivery,
    Heartbeat,
    HeartbeatAck,
    LinkStateAdvert,
    LinkStateDigest,
    LinkType,
    PeerEvent,
    PeerHeartbeat,
    Publish,
    SequenceRequest,
    SequencerPin,
    SubAdvert,
    SubDigest,
    SubSnapshot,
    Subscribe,
    SubscribeAck,
    Unsubscribe,
    WireMessage,
)


def event(topic="/t", size=100):
    return NBEvent(topic=topic, payload=b"", size=size)


class TestMessageSize:
    def test_control_messages_fixed(self):
        assert Connect("c", LinkType.UDP).wire_size(66) == CONTROL_BYTES
        assert Subscribe("c", "/a/b").wire_size(66) == CONTROL_BYTES

    def test_event_messages_scale_with_payload(self):
        small = EventDelivery(event(size=100)).wire_size(66)
        large = EventDelivery(event(size=1000)).wire_size(66)
        assert large - small == 900
        assert small == 66 + len("/t") + 100

    def test_publish_same_as_delivery(self):
        e = event()
        assert Publish("c", e).wire_size(66) == EventDelivery(e).wire_size(66)

    def test_peer_event_charges_target_list(self):
        e = event()
        one = PeerEvent(e, frozenset({"a"})).wire_size(66)
        three = PeerEvent(e, frozenset({"a", "b", "c"})).wire_size(66)
        assert three - one == 16

    def test_sequence_request(self):
        e = event()
        assert SequenceRequest(e, "b0").wire_size(66) > EventDelivery(
            e
        ).wire_size(66)

    def test_every_class_keeps_its_size(self):
        """Each class's wire size with a 66-byte envelope, as the
        per-message ``isinstance`` ladder it replaced computed them."""
        e = NBEvent(topic="/room/video", payload=b"x", size=1000)
        sized = [
            (Connect("c1", LinkType.UDP), 64),
            (ConnectAck("c1", "b0"), 64),
            (Disconnect("c1"), 64),
            (Subscribe("c1", "/room/#"), 64),
            (SubscribeAck("c1", "/room/#"), 64),
            (Unsubscribe("c1", "/room/#"), 64),
            (Busy("c1", "connect", 1.0), 64),
            (Heartbeat("c1"), 64),
            (HeartbeatAck("c1", "b0"), 64),
            (Publish("c1", e), 1077),
            (EventDelivery(e), 1077),
            (EventAck("c1", 7), 64),
            (PeerEvent(e, frozenset({"b1", "b2", "b3"})), 1101),
            (SequenceRequest(e, "b0"), 1093),
            (SubAdvert("b0", 4, "/room/#", True, frozenset({"b0", "b1", "b2"})), 88),
            (SubDigest("b0", {"b0": 1, "b1": 2}), 88),
            (SubSnapshot("b0", (("b1", 3, ("/room/#", "/a/b")),)), 87),
            (ClusterInterestAdvert("g0", 3, ("/room/#", "/a/b"), "c0"), 75),
            (ClusterDigest("g0", {"g1": 1, "g2": 2}, {"g1": 4}), 100),
            (PeerHeartbeat("b0"), 64),
            (LinkStateAdvert("b0", 2, frozenset({"b1", "b2"})), 80),
            (
                LinkStateAdvert(
                    "b0", 2, frozenset({"b1", "b2"}), {"b1": 1, "b2": 3}
                ),
                84,
            ),
            (SequencerPin("/room/video", "b2", 4, 10, "b0"), 93),
            (LinkStateDigest("b0", {"b0": 1, "b1": 2, "b2": 3}), 100),
        ]
        for message, size in sized:
            assert message.wire_size(66) == size, message
        every_class = {
            cls for cls in vars(links).values()
            if isinstance(cls, type) and issubclass(cls, WireMessage)
        } - {WireMessage}
        assert {type(message) for message, _ in sized} == every_class


def test_flooded_messages_carry_their_covered_set():
    """Every flooded message names the brokers it was already sent to:
    8 bytes per covered broker on top of its own size, as a SubAdvert.
    A link-state digest carries a geo broker's pins, topic and broker
    name plus 8 bytes each."""
    covered = frozenset({"b0", "b1", "b2"})
    flooded = [
        LinkStateAdvert("b0", 2, frozenset({"b1", "b2"})),
        ClusterInterestAdvert("g0", 3, ("/room/#", "/a/b"), "c0"),
        SequencerPin("/room/video", "b2", 4, 10, "b0"),
        SubAdvert("b0", 4, "/room/#", True),
    ]
    for message in flooded:
        wider = message.replace(covered=covered)
        assert wider.wire_size(66) == message.wire_size(66) + 24, message
        assert wider.covered == covered and message.covered == frozenset()
        assert wider == message.replace(covered=covered) != message
    pins = LinkStateDigest("b0", {"b0": 1}, pins={"/room/video": (4, "b2")})
    assert pins.wire_size(66) == LinkStateDigest("b0", {"b0": 1}).wire_size(
        66
    ) + 8 + len("/room/video") + len("b2")


def test_link_type_values():
    assert str(LinkType.UDP) == "udp"
    assert str(LinkType.HTTP_TUNNEL) == "http-tunnel"
    assert LinkType("ssl") is LinkType.SSL


def test_event_repr_flags():
    reliable = NBEvent("/t", b"", 10, reliable=True)
    assert "R" in repr(reliable)
    ordered = NBEvent("/t", b"", 10, ordered=True)
    assert "O" in repr(ordered)


def test_event_ids_monotonic():
    a, b = event(), event()
    assert b.event_id > a.event_id


def test_reliable_and_ordered_combined(net, sim):
    """An event can be both reliable and ordered: delivery to a lossy
    subscriber is exactly-once AND in sequence order.

    Publish-order fidelity additionally requires the *publisher* to use
    an ordered transport (TCP): over UDP the sequencer stamps events in
    arrival order, which link jitter may permute.
    """
    from repro.broker import Broker, BrokerClient
    from repro.simnet import LinkProfile, Network, SeededStreams, Simulator

    sim2 = Simulator()
    net2 = Network(sim2, SeededStreams(13))
    broker = Broker(net2.create_host("broker-host"), broker_id="b0")
    sub_host = net2.create_host("sub-host", link=LinkProfile(loss_rate=0.2))
    subscriber = BrokerClient(sub_host, client_id="sub")
    subscriber.connect(broker)
    publisher = BrokerClient(net2.create_host("pub-host"), client_id="pub")
    publisher.connect(broker, link_type=LinkType.TCP)
    sim2.run_for(10.0)
    assert subscriber.connected and publisher.connected
    got = []
    subscriber.subscribe("/ro", lambda e: got.append(e.payload))
    sim2.run_for(5.0)
    for index in range(20):
        publisher.publish("/ro", index, 100, reliable=True, ordered=True)
    sim2.run_for(40.0)
    assert got == list(range(20))


def test_ordered_over_udp_is_sequence_consistent(net, sim):
    """Over a jittery UDP publisher link the total order may differ from
    publish order, but every subscriber still sees the SAME gap-free
    sequencer order."""
    from repro.broker import Broker, BrokerClient
    from repro.simnet import Network, SeededStreams, Simulator

    sim2 = Simulator()
    net2 = Network(sim2, SeededStreams(13))
    broker = Broker(net2.create_host("broker-host"), broker_id="b0")
    subs = []
    inboxes = []
    for index in range(2):
        client = BrokerClient(net2.create_host(f"s{index}-host"),
                              client_id=f"s{index}")
        client.connect(broker)
        inbox = []
        inboxes.append(inbox)
        subs.append(client)
    publisher = BrokerClient(net2.create_host("pub-host"), client_id="pub")
    publisher.connect(broker)
    sim2.run_for(3.0)
    for client, inbox in zip(subs, inboxes):
        client.subscribe("/o", lambda e, inbox=inbox: inbox.append(e.payload))
    sim2.run_for(3.0)
    for index in range(20):
        publisher.publish("/o", index, 100, ordered=True)
    sim2.run_for(10.0)
    assert len(inboxes[0]) == 20
    assert sorted(inboxes[0]) == list(range(20))  # a permutation...
    assert inboxes[0] == inboxes[1]  # ...identical at every subscriber
