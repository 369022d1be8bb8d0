"""XGSP message/XML codec tests (unit + property round-trip)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.xgsp import messages as m
from repro.core.xgsp import xml_codec
from repro.soap.xmlutil import XmlCodecError


def roundtrip(message):
    return xml_codec.decode(xml_codec.encode(message))


#: One instance of every registered message type.
MESSAGES = [
    m.CreateSession(title="Physics seminar", creator="gcf",
                    media_kinds=["audio", "video", "chat"]),
    m.SessionCreated(session_id="session-9", title="t",
                     media=[m.MediaDescription("audio", "g711u", "/x")],
                     control_topic="/xgsp/sessions/session-9/control"),
    m.TerminateSession(session_id="s", requester="r"),
    m.SessionTerminated(session_id="s", reason="ok"),
    m.JoinSession(session_id="s", participant="sip:alice@d",
                  community="sip", terminal="sip:ua",
                  media_kinds=["audio"]),
    m.JoinAccepted(session_id="s", participant="p",
                   media=[m.MediaDescription("video", "h261", "/t", 600e3)]),
    m.JoinRejected(session_id="s", participant="p", reason="full"),
    m.SessionBusy(session_id="s", participant="p", retry_after_s=1.5),
    m.LeaveSession(session_id="s", participant="p"),
    m.InviteUser(session_id="s", inviter="a", invitee="b", note="join us"),
    m.FloorControl(session_id="s", participant="p", action="request"),
    m.MuteMember(session_id="s", requester="a", target="b", muted=True),
    m.SessionAnnouncement(session_id="s", event="joined",
                          participant="p", detail="h323"),
    m.ListSessions(community="sip"),
    m.SessionList(sessions=[{"session_id": "s", "members": 3}]),
    m.SessionOp(version=7, kind="join", session_id="s",
                data={"participant": "p", "muted": False},
                request_key="/xgsp/signaling/client/p#12",
                response_xml="<xgsp/>", leader="xgsp-a"),
    m.ReplicaHeartbeat(server_id="xgsp-b", leader="xgsp-a",
                       version=7, epoch=2),
    m.SnapshotRequest(server_id="xgsp-c"),
    m.SnapshotResponse(version=7, leader="xgsp-a",
                       sessions=[{"session_id": "s", "members": []}],
                       applied=[{"key": "k", "response_xml": "<xgsp/>"}]),
]


@pytest.mark.parametrize("message", MESSAGES)
def test_roundtrip_all_message_types(message):
    assert roundtrip(message) == message


def test_every_registered_type_has_distinct_name():
    assert len(xml_codec.MESSAGE_TYPES) == 19


def test_unregistered_type_rejected():
    class NotAMessage:
        pass

    with pytest.raises(XmlCodecError):
        xml_codec.encode(NotAMessage())


def test_lookalike_class_rejected():
    # Registered by class, not by class name.
    class JoinSession:
        pass

    with pytest.raises(XmlCodecError):
        xml_codec.encode(JoinSession())
    with pytest.raises(XmlCodecError):
        xml_codec.encode(m.MediaDescription("audio"))


def test_decode_garbage_rejected():
    with pytest.raises(XmlCodecError):
        xml_codec.decode("<other/>")
    with pytest.raises(XmlCodecError):
        xml_codec.decode('<xgsp msg="Nope" type="dict"></xgsp>')


def test_wire_size_positive_and_tracks_content():
    small = m.InviteUser(session_id="s", inviter="a", invitee="b")
    big = m.InviteUser(session_id="s", inviter="a", invitee="b",
                       note="x" * 500)
    assert xml_codec.wire_size(big) > xml_codec.wire_size(small) + 400


@given(
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=60),
    st.lists(st.sampled_from(["audio", "video", "chat", "app"]),
             min_size=1, max_size=4, unique=True),
)
def test_create_session_roundtrip_property(title, media_kinds):
    message = m.CreateSession(title=title, creator="u", media_kinds=media_kinds)
    assert roundtrip(message) == message


# The literal wire text of the join path's messages.  The encoded length
# is what the signaling transport charges (modeled time), so a change to
# the wire form must show up here as a string diff.
_ALICE = "sip:alice@example.org"
_LEFT = (
    '<xgsp type="dict" msg="SessionAnnouncement">'
    '<request_id type="int">17</request_id>'
    '<session_id type="str">session-7</session_id>'
    '<event type="str">left</event>'
    '<participant type="str">h323:bob</participant>'
    '<detail type="str" /></xgsp>'
)
WIRE_PINS = [
    (
        m.JoinSession(request_id=41, session_id="session-7",
                      participant=_ALICE, community="sip",
                      terminal="sip:ua", media_kinds=["audio", "video"]),
        '<xgsp type="dict" msg="JoinSession">'
        '<request_id type="int">41</request_id>'
        '<session_id type="str">session-7</session_id>'
        '<participant type="str">sip:alice@example.org</participant>'
        '<community type="str">sip</community>'
        '<terminal type="str">sip:ua</terminal>'
        '<media_kinds type="list"><item type="str">audio</item>'
        '<item type="str">video</item></media_kinds></xgsp>',
    ),
    (
        m.JoinAccepted(
            request_id=41, session_id="session-7", participant=_ALICE,
            media=[
                m.MediaDescription(
                    "audio", "g711u",
                    "/xgsp/sessions/session-7/media/audio", 64000.0),
                m.MediaDescription(
                    "video", "h261", "/xgsp/sessions/session-7/media/video"),
            ],
            control_topic="/xgsp/sessions/session-7/control"),
        '<xgsp type="dict" msg="JoinAccepted">'
        '<request_id type="int">41</request_id>'
        '<session_id type="str">session-7</session_id>'
        '<participant type="str">sip:alice@example.org</participant>'
        '<media type="list">'
        '<item type="dict"><kind type="str">audio</kind>'
        '<codec type="str">g711u</codec>'
        '<topic type="str">/xgsp/sessions/session-7/media/audio</topic>'
        '<bandwidth_bps type="float">64000.0</bandwidth_bps></item>'
        '<item type="dict"><kind type="str">video</kind>'
        '<codec type="str">h261</codec>'
        '<topic type="str">/xgsp/sessions/session-7/media/video</topic>'
        '<bandwidth_bps type="float">0.0</bandwidth_bps></item></media>'
        '<control_topic type="str">/xgsp/sessions/session-7/control'
        '</control_topic></xgsp>',
    ),
    (
        m.SessionAnnouncement(request_id=42, session_id="session-7",
                              event="joined", participant=_ALICE,
                              detail="sip"),
        '<xgsp type="dict" msg="SessionAnnouncement">'
        '<request_id type="int">42</request_id>'
        '<session_id type="str">session-7</session_id>'
        '<event type="str">joined</event>'
        '<participant type="str">sip:alice@example.org</participant>'
        '<detail type="str">sip</detail></xgsp>',
    ),
    (
        m.SessionOp(
            request_id=43, version=9, kind="leave", session_id="session-7",
            data={"participant": "h323:bob", "muted": False,
                  "display name": None},
            request_key="/xgsp/signaling/client/h323:bob#17",
            response_xml=_LEFT, leader="xgsp-a"),
        '<xgsp type="dict" msg="SessionOp">'
        '<request_id type="int">43</request_id>'
        '<version type="int">9</version><kind type="str">leave</kind>'
        '<session_id type="str">session-7</session_id>'
        '<data type="dict"><participant type="str">h323:bob</participant>'
        '<muted type="bool">false</muted>'
        '<entry type="null" key="display name" /></data>'
        '<request_key type="str">/xgsp/signaling/client/h323:bob#17'
        '</request_key><response_xml type="str">'
        + _LEFT.replace("<", "&lt;").replace(">", "&gt;")
        + '</response_xml><leader type="str">xgsp-a</leader></xgsp>',
    ),
]


@pytest.mark.parametrize(
    "message, text", WIRE_PINS, ids=[type(p[0]).__name__ for p in WIRE_PINS]
)
def test_wire_text_is_pinned(message, text):
    assert xml_codec.encode(message) == text
    assert xml_codec.decode(text) == message


def test_pinned_response_text_is_itself_a_message():
    assert xml_codec.encode(
        m.SessionAnnouncement(request_id=17, session_id="session-7",
                              event="left", participant="h323:bob")
    ) == _LEFT
