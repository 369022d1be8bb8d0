"""Broker failover: endpoints ride out broker loss.

The paper's "dynamic broker collections" (and VRVS's reflector failover)
promise that endpoints survive broker churn.  These scenarios kill a
broker mid-conference and verify automatic client reconnect, full
subscription replay, and zero leaked state on the survivors.
"""

import pytest

from repro.broker import Broker, BrokerClient, BrokerNetwork, Failover, RtpProxy
from repro.core.xgsp import XgspClient, XgspSessionServer
from repro.simnet import Address, LinkProfile, Network, SeededStreams, Simulator, UdpSocket
from repro.sip.gateway import SipXgspGateway
from repro.sip.proxy import SipProxy
from repro.sip.registrar import LocationService, SipRegistrar
from repro.sip.sdp import SessionDescription
from repro.sip.useragent import SipUserAgent
from repro.core.xgsp.translation import conference_alias, conference_sip_uri
from repro.h323.gatekeeper import Gatekeeper
from repro.h323.gateway import H323XgspGateway
from repro.h323.terminal import H323Terminal
from repro.rtp.packet import PayloadType, RtpPacket

def fast_failover(*brokers):
    """Fast liveness settings for the scenarios (detection in under 1 s)."""
    return Failover(brokers, keepalive_s=0.25, miss_limit=2)


def two_brokers(seed=7):
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    bnet = BrokerNetwork.chain(net, 2)
    return sim, net, bnet, bnet.broker("broker-0"), bnet.broker("broker-1")


def test_subscriber_fails_over_and_replays_subscriptions():
    sim, net, bnet, b0, b1 = two_brokers()
    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(b0)
    subscriber = BrokerClient(
        net.create_host("sub-host"), client_id="sub", failover=fast_failover(b0)
    )
    subscriber.connect(b1)
    got = []
    subscriber.subscribe("/conf/audio", lambda e: got.append(e.payload))
    disconnects, failovers = [], []
    subscriber.on_disconnected = lambda c: disconnects.append(c.broker_id)
    subscriber.on_failover = lambda c, b: failovers.append(b.broker_id)
    sim.run_for(2.0)
    assert subscriber.connected and subscriber.broker_id == "broker-1"

    publisher.publish("/conf/audio", "before", 100)
    sim.run_for(1.0)
    assert got == ["before"]
    assert b1.heartbeats_received > 0
    assert subscriber.heartbeats_acked > 0

    # The media broker dies mid-conference.
    bnet.remove_broker("broker-1")
    sim.run_for(5.0)
    assert disconnects == [None] or disconnects  # link loss fired
    assert subscriber.connected
    assert subscriber.broker_id == "broker-0"
    assert subscriber.failovers == 1
    assert failovers == ["broker-0"]
    # Full subscription replay on the survivor.
    assert b0.has_local_subscription("/conf/audio", "sub")
    assert subscriber.subscriptions_replayed == 1

    publisher.publish("/conf/audio", "after", 100)
    sim.run_for(1.0)
    assert got == ["before", "after"]

    # Zero leaked state on the survivor: the dead broker's remote
    # interest was purged when routes were recomputed.
    stats = b0.statistics()
    assert stats["remote_interest"] == 0
    assert stats["local_subscriptions"] == 1  # just the replayed one


def test_publishes_during_outage_flush_after_failover():
    sim, net, bnet, b0, b1 = two_brokers(seed=8)
    subscriber = BrokerClient(net.create_host("sub-host"), client_id="sub")
    subscriber.connect(b0)
    publisher = BrokerClient(
        net.create_host("pub-host"), client_id="pub", failover=fast_failover(b0)
    )
    publisher.connect(b1)
    got = []
    subscriber.subscribe("/t", lambda e: got.append(e.payload))
    sim.run_for(2.0)

    # Publish at the exact moment the link loss is detected: the client
    # is disconnected, so the publish must queue and flush after failover.
    publisher.on_disconnected = lambda c: c.publish("/t", "queued", 100)
    bnet.remove_broker("broker-1")
    sim.run_for(5.0)
    assert publisher.link_losses == 1
    assert publisher.connected and publisher.broker_id == "broker-0"
    assert got == ["queued"]


def test_rtp_proxy_bridges_survive_broker_loss():
    sim, net, bnet, b0, b1 = two_brokers(seed=9)
    proxy = RtpProxy(
        net.create_host("gw-host"), b1, proxy_id="gw",
        failover=Failover([b0], keepalive_s=0.25),
    )
    sink = UdpSocket(net.create_host("sink"), 7000)
    received = []
    sink.on_receive(lambda p, s, d: received.append(p))
    proxy.bridge_outbound("/media/v", sink.local_address)
    ingress = proxy.bridge_inbound("/media/v2")

    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(b0)
    tap = BrokerClient(net.create_host("tap-host"), client_id="tap")
    tap.connect(b0)
    tapped = []
    tap.subscribe("/media/v2", lambda e: tapped.append(e.payload))
    sim.run_for(2.0)

    publisher.publish("/media/v", "frame-1", 700)
    sim.run_for(1.0)
    assert received == ["frame-1"]

    bnet.remove_broker("broker-1")
    sim.run_for(5.0)
    assert proxy.failovers == 1
    assert proxy.client.broker_id == "broker-0"

    # Outbound bridge re-established by the subscription replay.
    publisher.publish("/media/v", "frame-2", 700)
    # Inbound bridge publishes to the new broker.
    camera = UdpSocket(net.create_host("camera"))
    camera.sendto("cam-frame", 700, ingress)
    sim.run_for(1.0)
    assert received == ["frame-1", "frame-2"]
    assert tapped == ["cam-frame"]


def test_xgsp_signaling_survives_media_broker_loss():
    sim, net, bnet, b0, b1 = two_brokers(seed=10)
    server = XgspSessionServer(net.create_host("xgsp-host"), b0)
    client = XgspClient(
        net.create_host("client-host"), b1, "roamer",
        failover=Failover([b0], keepalive_s=0.25),
    )
    sim.run_for(2.0)
    created = []
    client.create_session("movable-feast", on_created=created.append)
    sim.run_for(3.0)
    assert created

    bnet.remove_broker("broker-1")
    sim.run_for(5.0)
    assert client.failovers == 1
    assert client.broker_client.broker_id == "broker-0"

    # The reply-topic subscription was replayed: request/response still
    # correlates on the new broker.
    joined = []
    client.join(created[0].session_id, on_result=joined.append)
    sim.run_for(5.0)
    assert joined
    assert server.session(created[0].session_id).roster.participants() == [
        "roamer"
    ]


def test_sip_gateway_fails_over_with_its_rtp_legs():
    """A SIP endpoint in conference: the media broker dies; the gateway's
    XGSP client and the per-leg RTP proxy both fail over, and session
    media keeps flowing to the endpoint."""
    sim, net, bnet, b0, b1 = two_brokers(seed=11)
    server = XgspSessionServer(net.create_host("xgsp-host"), b0)
    admin = XgspClient(net.create_host("admin-host"), b0, "admin")

    sip_host = net.create_host("sip-host")
    location = LocationService()
    sip_proxy = SipProxy(sip_host, "mmcs.org", location=location)
    registrar = SipRegistrar(sip_host, port=5070, location=location)
    gateway = SipXgspGateway(
        sip_proxy, b1, failover=Failover([b0], keepalive_s=0.25)
    )
    sim.run_for(2.0)

    created = []
    admin.create_session("conf", ["audio"], on_created=created.append)
    sim.run_for(3.0)
    assert created
    session_id = created[0].session_id

    ua = SipUserAgent(
        net.create_host("alice-host"), "sip:alice@mmcs.org", sip_proxy.address
    )
    ua.register(registrar.address)
    sim.run_for(2.0)
    offer = SessionDescription("alice", "alice-host").add_media(
        "audio", 41000, [0]
    )
    answers = []
    media = []
    ua_rtp = UdpSocket(ua.host, 41000)
    ua_rtp.on_receive(lambda p, s, d: media.append(p))
    ua.invite(
        conference_sip_uri(session_id, "mmcs.org"),
        offer,
        on_answer=lambda d, sdp: answers.append(sdp),
    )
    sim.run_for(4.0)
    assert len(answers) == 1
    assert gateway.legs() == 1

    # Another participant publishes on the session's audio topic.
    audio_topic = server.session(session_id).media_for(["audio"])[0].topic
    speaker = BrokerClient(net.create_host("speaker-host"), client_id="spk")
    speaker.connect(b0)
    sim.run_for(1.0)
    speaker.publish(audio_topic, "hello", 160)
    sim.run_for(1.0)
    assert media == ["hello"]

    # The media broker dies: gateway signaling and the leg's RTP proxy
    # both reconnect to the survivor.
    bnet.remove_broker("broker-1")
    sim.run_for(6.0)
    assert gateway.failovers == 1
    assert gateway.broker is b0
    leg = next(iter(gateway._legs.values()))
    assert leg.proxy.failovers == 1

    speaker.publish(audio_topic, "still-here", 160)
    sim.run_for(1.0)
    assert media == ["hello", "still-here"]


def test_h323_gateway_fails_over_with_its_rtp_legs():
    """Same as the SIP scenario on the H.323 side: the gateway's XGSP
    client and the call's RTP proxy fail over and media resumes."""
    sim, net, bnet, b0, b1 = two_brokers(seed=14)
    server = XgspSessionServer(net.create_host("xgsp-host"), b0)
    admin = XgspClient(net.create_host("admin-host"), b0, "admin")
    gk_host = net.create_host("gk-host")
    gatekeeper = Gatekeeper(gk_host, gatekeeper_id="zone")
    gateway = H323XgspGateway(
        gk_host, gatekeeper, b1,
        failover=Failover([b0], keepalive_s=0.25),
    )
    sim.run_for(2.0)

    created = []
    admin.create_session("conf", ["audio"], on_created=created.append)
    sim.run_for(3.0)
    assert created
    session_id = created[0].session_id

    terminal = H323Terminal(
        net.create_host("term-host"), "polycom", gatekeeper.address
    )
    terminal.register()
    sim.run_for(1.0)
    connected = []
    call = terminal.call(
        conference_alias(session_id), on_connected=connected.append
    )
    sim.run_for(4.0)
    assert connected and call.state == call.CONNECTED

    media = []
    terminal.on_media = lambda c, p: media.append(p.sequence)

    def rtp(sequence):
        return RtpPacket(ssrc=3, sequence=sequence, timestamp=sequence * 160,
                         payload_type=PayloadType.PCMU, payload_size=160)

    audio_topic = server.session(session_id).media_for(["audio"])[0].topic
    speaker = BrokerClient(net.create_host("speaker-host"), client_id="spk")
    speaker.connect(b0)
    sim.run_for(1.0)
    speaker.publish(audio_topic, rtp(1), rtp(1).wire_size)
    sim.run_for(1.0)
    assert media == [1]

    bnet.remove_broker("broker-1")
    sim.run_for(6.0)
    assert gateway.failovers == 1
    assert gateway.broker is b0
    _accepted, leg_proxy = next(iter(gateway._joins.values()))
    assert leg_proxy.failovers == 1

    speaker.publish(audio_topic, rtp(2), rtp(2).wire_size)
    sim.run_for(1.0)
    assert media == [1, 2]


def test_broker_reaps_silent_clients_releasing_interest():
    sim = Simulator()
    net = Network(sim, SeededStreams(12))
    broker = Broker(
        net.create_host("broker-host"), broker_id="b0", reap_timeout_s=2.0
    )
    quiet_host = net.create_host("quiet-host")
    quiet = BrokerClient(quiet_host, client_id="quiet")
    quiet.connect(broker)
    alive = BrokerClient(
        net.create_host("alive-host"), client_id="alive",
        failover=Failover(keepalive_s=0.5),
    )
    alive.connect(broker)
    quiet.subscribe("/t", lambda e: None)
    alive.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    assert broker.client_count() == 2

    # The quiet client's process dies silently (no Disconnect): its host
    # link drops everything from here on.
    quiet_host.link = LinkProfile(loss_rate=0.999999)
    sim.run_for(10.0)
    # Reaped: subscription interest released, keepalive client survives.
    assert broker.client_count() == 1
    assert broker.client_ids() == ["alive"]
    assert broker.clients_reaped == 1
    assert broker.statistics()["local_subscriptions"] == 1
    assert not broker.has_local_subscription("/t", "quiet")


@pytest.mark.slow
def test_failover_chain_soak():
    """Clients survive two successive broker deaths, hopping down a
    3-broker chain, with zero leaked interest at every step."""
    sim = Simulator()
    net = Network(sim, SeededStreams(13))
    bnet = BrokerNetwork.chain(net, 3)
    b0, b1, b2 = (bnet.broker(f"broker-{i}") for i in range(3))
    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(b0)
    clients = []
    for index in range(10):
        client = BrokerClient(
            net.create_host(f"sub-{index}-host"),
            client_id=f"sub-{index}", failover=fast_failover(b1, b0),
        )
        client.connect(b2)
        client.subscribe("/soak", lambda e: None)
        clients.append(client)
    sim.run_for(3.0)

    bnet.remove_broker("broker-2")
    sim.run_for(6.0)
    assert all(c.connected and c.broker_id == "broker-1" for c in clients)

    bnet.remove_broker("broker-1")
    sim.run_for(10.0)
    assert all(c.connected and c.broker_id == "broker-0" for c in clients)
    assert all(c.failovers == 2 for c in clients)
    stats = b0.statistics()
    assert stats["remote_interest"] == 0
    assert stats["local_subscriptions"] == 10
    for client in clients:
        client.disconnect()
    sim.run_for(2.0)
    assert b0.statistics()["local_subscriptions"] == 0
