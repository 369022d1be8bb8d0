"""Churn torture tests: rapid join/leave while media flows."""

import pytest

from repro.broker import Broker, BrokerClient
from repro.core.mmcs import GlobalMMCS, MMCSConfig
from repro.core.xgsp.translation import conference_sip_uri
from repro.rtp.media import AudioSource
from repro.sip.sdp import SessionDescription
from repro.simnet import Network, SeededStreams, Simulator


def test_subscriber_churn_does_not_disturb_stable_subscribers():
    """50 clients subscribe/unsubscribe while one stable client counts a
    continuous stream: the stable client misses nothing."""
    sim = Simulator()
    net = Network(sim, SeededStreams(8))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")

    stable = BrokerClient(net.create_host("stable-host"), client_id="stable")
    stable.connect(broker)
    got = []
    stable.subscribe("/radio", lambda e: got.append(e.payload.sequence))

    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(broker)
    sim.run_for(3.0)

    source = AudioSource(
        sim, lambda p: publisher.publish("/radio", p, p.wire_size)
    )
    source.start()

    # Churners arrive every 100 ms, stay ~0.5 s, and leave.
    for index in range(50):
        def arrive(index=index):
            host = net.create_host(f"churn-{index}-host")
            client = BrokerClient(host, client_id=f"churn-{index}")
            client.connect(broker)
            client.subscribe("/radio", lambda e: None)
            sim.schedule(0.5, client.disconnect)

        sim.schedule(index * 0.1, arrive)
    sim.run_for(8.0)
    source.stop()
    sim.run_for(1.0)
    expected = source.packets_sent
    assert len(got) == expected
    assert sorted(got) == list(range(expected))
    assert broker.client_count() == 2  # stable + publisher remain


def test_sip_conference_join_leave_churn():
    """SIP endpoints cycle through a conference; roster and gateway legs
    always return to a clean state."""
    mmcs = GlobalMMCS(MMCSConfig(seed=5, enable_h323=False,
                                 enable_streaming=False,
                                 enable_accessgrid=False))
    mmcs.start()
    session = mmcs.create_session("churny", ["audio"])
    uri = conference_sip_uri(session.session_id, mmcs.config.sip_domain)

    for round_number in range(3):
        agents = []
        dialogs = []
        for index in range(4):
            user = f"u{round_number}-{index}"
            ua = mmcs.create_sip_user(user)
            agents.append(ua)
        mmcs.run_for(2.0)
        for index, ua in enumerate(agents):
            offer = SessionDescription(
                ua.uri, ua.host.name
            ).add_media("audio", 40000 + index * 2, [0])
            ua.invite(uri, offer,
                      on_answer=lambda d, sdp: dialogs.append(d))
        mmcs.run_for(4.0)
        assert len(dialogs) == 4
        roster = mmcs.session_server.session(session.session_id).roster
        assert len(roster) == 4
        assert len(mmcs.sip_gateway.bridge.legs) == 4
        for dialog, ua in zip(dialogs, agents):
            ua.bye(dialog)
        mmcs.run_for(4.0)
        roster = mmcs.session_server.session(session.session_id).roster
        assert len(roster) == 0, f"round {round_number} left stale members"
        assert len(mmcs.sip_gateway.bridge.legs) == 0


def test_rejoin_after_leave_is_clean():
    mmcs = GlobalMMCS(MMCSConfig(seed=6, enable_h323=False, enable_sip=False,
                                 enable_streaming=False,
                                 enable_accessgrid=False))
    mmcs.start()
    session = mmcs.create_session("s", ["audio"])
    client = mmcs.create_native_client("yoyo")
    mmcs.run_for(2.0)
    for _ in range(5):
        client.join(session.session_id)
        mmcs.run_for(1.0)
        client.leave(session.session_id)
        mmcs.run_for(1.0)
    roster = mmcs.session_server.session(session.session_id).roster
    assert len(roster) == 0
    client.join(session.session_id)
    mmcs.run_for(1.0)
    assert roster.participants() == ["yoyo"]
