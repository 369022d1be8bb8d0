"""SIP endpoints joining XGSP sessions through the SIP gateway."""

import pytest

from repro.core.mmcs import GlobalMMCS, MMCSConfig
from repro.core.xgsp.translation import conference_sip_uri
from repro.rtp.packet import PayloadType, RtpPacket
from repro.sip.sdp import SessionDescription
from repro.simnet.packet import Address
from repro.simnet.udp import UdpSocket


@pytest.fixture
def mmcs():
    system = GlobalMMCS(MMCSConfig(enable_h323=False, enable_streaming=False,
                                   enable_accessgrid=False))
    system.start()
    return system


def rtp(seq, pt=PayloadType.PCMU, size=160):
    return RtpPacket(ssrc=9, sequence=seq, timestamp=seq * 160,
                     payload_type=pt, payload_size=size)


def sip_call_into_session(mmcs, session, user="alice"):
    """Register a UA, INVITE the conference URI, return (ua, dialog, answer)."""
    ua = mmcs.create_sip_user(user)
    mmcs.run_for(2.0)
    assert ua.registered
    offer = SessionDescription(user, f"{user}-host")
    offer.add_media("audio", 41000, [0])
    offer.add_media("video", 41002, [31])
    answers = []
    failures = []
    dialog = ua.invite(
        conference_sip_uri(session.session_id, mmcs.config.sip_domain),
        offer,
        on_answer=lambda d, sdp: answers.append(sdp),
        on_failure=lambda response: failures.append(response.status),
    )
    mmcs.run_for(4.0)
    assert not failures, failures
    assert len(answers) == 1
    return ua, dialog, answers[0]


def test_sip_invite_joins_session(mmcs):
    session = mmcs.create_session("conf")
    ua, dialog, answer = sip_call_into_session(mmcs, session)
    xgsp_session = mmcs.session_server.session(session.session_id)
    assert xgsp_session.roster.communities() == {"sip": 1}
    member = xgsp_session.roster.members()[0]
    assert member.participant.startswith("sip:alice@")
    # The answer points media at the broker-side RTP proxy.
    assert answer.has_media("audio") and answer.has_media("video")
    assert answer.connection_host == mmcs.broker.host.name
    assert mmcs.sip_gateway.bridge.joins_accepted == 1


def test_invite_to_unknown_session_rejected(mmcs):
    ua = mmcs.create_sip_user("alice")
    mmcs.run_for(2.0)
    offer = SessionDescription("alice", "alice-host").add_media("audio", 41000, [0])
    failures = []
    ua.invite(
        conference_sip_uri("session-404", mmcs.config.sip_domain),
        offer,
        on_failure=lambda response: failures.append(response.status),
    )
    mmcs.run_for(4.0)
    assert failures == [404]
    assert mmcs.sip_gateway.bridge.joins_rejected == 1


def test_sip_media_bridged_to_topic(mmcs):
    session = mmcs.create_session("conf")
    ua, dialog, answer = sip_call_into_session(mmcs, session)

    # A native broker subscriber on the session audio topic hears the UA.
    audio_topic = next(m.topic for m in session.media if m.kind == "audio")
    native = mmcs.create_native_client("native-listener")
    got = []
    native.subscribe_media(audio_topic, lambda e: got.append(e.payload.sequence))
    mmcs.run_for(2.0)

    # The UA sends RTP to the address from the SDP answer.
    audio_line = answer.media_for("audio")
    sock = UdpSocket(ua.host)
    for i in range(5):
        packet = rtp(i)
        sock.sendto(packet, packet.wire_size,
                    Address(answer.connection_host, audio_line.port))
    mmcs.run_for(2.0)
    assert sorted(got) == [0, 1, 2, 3, 4]


def test_topic_media_bridged_to_sip_endpoint(mmcs):
    session = mmcs.create_session("conf")
    ua, dialog, answer = sip_call_into_session(mmcs, session)

    # RTP arriving at the UA's offered audio port.
    got = []
    ua_audio = UdpSocket(ua.host, 41000)
    ua_audio.on_receive(lambda payload, src, d: got.append(payload.sequence))

    publisher = mmcs.create_native_client("native-speaker")
    audio_topic = next(m.topic for m in session.media if m.kind == "audio")
    mmcs.run_for(2.0)
    for i in range(5):
        packet = rtp(100 + i)
        publisher.publish_media(audio_topic, packet, packet.wire_size)
    mmcs.run_for(2.0)
    assert sorted(got) == [100, 101, 102, 103, 104]


def test_two_sip_endpoints_hear_each_other(mmcs):
    session = mmcs.create_session("conf")
    alice, _d1, answer_a = sip_call_into_session(mmcs, session, "alice")
    bob, _d2, answer_b = sip_call_into_session(mmcs, session, "bob")

    xgsp_session = mmcs.session_server.session(session.session_id)
    assert xgsp_session.roster.communities() == {"sip": 2}

    bob_audio = UdpSocket(bob.host, 41000)
    got = []
    bob_audio.on_receive(lambda payload, src, d: got.append(payload.sequence))

    alice_sock = UdpSocket(alice.host)
    line = answer_a.media_for("audio")
    for i in range(5):
        packet = rtp(i)
        alice_sock.sendto(packet, packet.wire_size,
                          Address(answer_a.connection_host, line.port))
    mmcs.run_for(2.0)
    assert sorted(got) == [0, 1, 2, 3, 4]


def test_bye_leaves_session_and_tears_down_leg(mmcs):
    session = mmcs.create_session("conf")
    ua, dialog, answer = sip_call_into_session(mmcs, session)
    assert len(mmcs.sip_gateway.bridge.legs) == 1
    ua.bye(dialog)
    mmcs.run_for(3.0)
    xgsp_session = mmcs.session_server.session(session.session_id)
    assert len(xgsp_session.roster) == 0
    assert len(mmcs.sip_gateway.bridge.legs) == 0
