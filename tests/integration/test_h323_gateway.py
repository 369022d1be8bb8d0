"""H.323 terminals joining XGSP sessions through the H.323 gateway."""

import pytest

from repro.core.mmcs import GlobalMMCS, MMCSConfig
from repro.core.xgsp.translation import conference_alias
from repro.rtp.packet import PayloadType, RtpPacket


@pytest.fixture
def mmcs():
    system = GlobalMMCS(MMCSConfig(enable_sip=False, enable_streaming=False,
                                   enable_accessgrid=False))
    system.start()
    return system


def rtp(seq, pt=PayloadType.PCMU, size=160):
    return RtpPacket(ssrc=3, sequence=seq, timestamp=seq * 160,
                     payload_type=pt, payload_size=size)


def h323_call_into_session(mmcs, session, alias="polycom"):
    terminal = mmcs.create_h323_terminal(alias)
    mmcs.run_for(1.0)
    assert terminal.registered
    connected = []
    call = terminal.call(
        conference_alias(session.session_id),
        on_connected=connected.append,
    )
    mmcs.run_for(4.0)
    assert connected, f"H.323 call into {session.session_id} failed"
    return terminal, connected[0]


def test_h323_terminal_joins_session(mmcs):
    session = mmcs.create_session("conf")
    terminal, call = h323_call_into_session(mmcs, session)
    xgsp_session = mmcs.session_server.session(session.session_id)
    assert xgsp_session.roster.communities() == {"h323": 1}
    assert xgsp_session.roster.members()[0].participant == "h323:polycom"
    assert call.state == call.CONNECTED
    # Both audio and video channels negotiated via H.245.
    assert call.remote_media_address("audio") is not None
    assert call.remote_media_address("video") is not None
    assert mmcs.h323_gateway.bridge.joins_accepted == 1


def test_call_to_unknown_conference_rejected(mmcs):
    terminal = mmcs.create_h323_terminal("polycom")
    mmcs.run_for(1.0)
    released = []
    call = terminal.call(conference_alias("session-404"))
    call.on_released = lambda c: released.append(c.release_reason)
    mmcs.run_for(4.0)
    assert released == ["xgsp-join-rejected"]
    assert mmcs.h323_gateway.bridge.joins_rejected == 1


def test_h323_media_bridged_to_topic(mmcs):
    session = mmcs.create_session("conf")
    terminal, call = h323_call_into_session(mmcs, session)
    audio_topic = next(m.topic for m in session.media if m.kind == "audio")
    native = mmcs.create_native_client("listener")
    got = []
    native.subscribe_media(audio_topic, lambda e: got.append(e.payload.sequence))
    mmcs.run_for(2.0)
    for i in range(5):
        call.send_media("audio", rtp(i))
    mmcs.run_for(2.0)
    assert sorted(got) == [0, 1, 2, 3, 4]


def test_topic_media_bridged_to_h323_terminal(mmcs):
    session = mmcs.create_session("conf")
    terminal, call = h323_call_into_session(mmcs, session)
    got = []
    terminal.on_media = lambda c, p: got.append(p.sequence)
    publisher = mmcs.create_native_client("speaker")
    audio_topic = next(m.topic for m in session.media if m.kind == "audio")
    mmcs.run_for(2.0)
    for i in range(5):
        packet = rtp(50 + i)
        publisher.publish_media(audio_topic, packet, packet.wire_size)
    mmcs.run_for(2.0)
    assert sorted(got) == [50, 51, 52, 53, 54]


def test_audio_only_session_limits_h245_channels(mmcs):
    session = mmcs.create_session("audio-only", ["audio"])
    terminal, call = h323_call_into_session(mmcs, session)
    assert call.remote_media_address("audio") is not None
    assert call.remote_media_address("video") is None


def test_hangup_leaves_session(mmcs):
    session = mmcs.create_session("conf")
    terminal, call = h323_call_into_session(mmcs, session)
    call.hangup()
    mmcs.run_for(3.0)
    xgsp_session = mmcs.session_server.session(session.session_id)
    assert len(xgsp_session.roster) == 0
