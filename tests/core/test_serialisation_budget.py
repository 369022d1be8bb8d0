"""Signaling serialisation budget: what one join and one leave cost, in
codec calls.

Hardware-independent, in the style of ``tests/simnet/test_frame_budget.py``:
counts ``xml_codec.encode`` / ``decode`` calls instead of timing them, and
call counts repeat exactly.  One native ``XgspClient`` joins and leaves a
session on one broker.  A request is encoded once by the client, its
announcement once for both topics it goes to, and its answer once — by
``_journal``, whose text is also the reply and what a retry is answered
with — and decoded once by the server and once by the requester: 3 and 2.
It used to be 5 and 2 (the announcement once per topic, the answer once
for the journal and once for the reply).
"""

import collections

import pytest

from repro.broker import Broker
from repro.core.xgsp import XgspClient, XgspSessionServer, xml_codec
from repro.core.xgsp.messages import (
    CreateSession,
    JoinAccepted,
    JoinSession,
    LeaveSession,
    SessionAnnouncement,
)
from repro.core.xgsp.session_server import (
    ANNOUNCEMENTS_TOPIC,
    SERVER_TOPIC,
    WRAPPER_BYTES,
    client_topic,
)
from tests.soap.test_xmlutil import reference_xgsp

ENCODES_PER_REQUEST = 3
DECODES_PER_REQUEST = 2


@pytest.fixture
def conference(net, sim):
    """A session server, a session, a connected participant, and the raw
    XML text each of the two publishes, by topic."""
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    server = XgspSessionServer(net.create_host("xgsp-host"), broker)
    bob = XgspClient(net.create_host("bob-host"), broker, "bob")
    sim.run_for(1.0)
    created = server.handle_message(CreateSession(title="t", creator="c"))
    sim.run_for(1.0)
    published = collections.defaultdict(list)
    for client in (server.client, bob.broker_client):
        def recording(topic, payload, size, *, publish=client.publish, **kwargs):
            assert size == len(payload["xml"]) + WRAPPER_BYTES
            published[topic].append(payload["xml"])
            publish(topic, payload, size, **kwargs)

        client.publish = recording
    return server, bob, created, published


@pytest.fixture
def codec_calls(monkeypatch):
    calls = collections.Counter()
    encode, decode = xml_codec.encode, xml_codec.decode

    def counting_encode(message):
        calls["encode"] += 1
        return encode(message)

    def counting_decode(text):
        calls["decode"] += 1
        return decode(text)

    monkeypatch.setattr(xml_codec, "encode", counting_encode)
    monkeypatch.setattr(xml_codec, "decode", counting_decode)
    return calls


def test_join_retry_and_leave_stay_within_the_codec_budget(
    sim, conference, codec_calls
):
    server, bob, created, published = conference
    sid, control = created.session_id, created.control_topic
    reply_topic = client_topic("bob")
    budget = {"encode": ENCODES_PER_REQUEST, "decode": DECODES_PER_REQUEST}

    # ---- join: request, announcement (two topics), answer.
    answers = []
    request_id = bob.join(sid, community="sip", on_result=answers.append)
    sim.run_for(2.0)
    assert dict(codec_calls) == budget
    assert isinstance(answers[0], JoinAccepted)
    [request_text] = published[SERVER_TOPIC]
    [announced] = published[ANNOUNCEMENTS_TOPIC]
    assert published[control] == [announced]
    [reply_text] = published[reply_topic]
    key = f"{reply_topic}#{request_id}"
    assert server._applied[key] == reply_text
    # The strings the ElementTree encoder produced for the same objects.
    expectations = [
        (request_text, JoinSession(
            request_id=request_id, session_id=sid, participant="bob",
            community="sip")),
        (reply_text, answers[0]),
    ]
    codec_calls.clear()

    # ---- retry of the applied join: answered from _applied, no encode.
    bob._publish_request(request_text)
    sim.run_for(2.0)
    assert dict(codec_calls) == {"decode": 2}  # server + the stale reply
    assert server.duplicates_suppressed == 1
    assert published[reply_topic] == [reply_text, reply_text]
    assert len(published[ANNOUNCEMENTS_TOPIC]) == 1
    assert server.session(sid).roster.participants() == ["bob"]
    codec_calls.clear()

    # ---- leave: request, announcement (two topics), answer.
    left = []
    leave_id = bob.leave(sid, on_result=left.append)
    sim.run_for(2.0)
    assert dict(codec_calls) == budget
    assert server.session(sid).roster.participants() == []
    [_, _, leave_text] = published[SERVER_TOPIC]
    [_, left_announced] = published[ANNOUNCEMENTS_TOPIC]
    assert published[control] == [announced, left_announced]
    leave_reply = published[reply_topic][-1]
    assert server._applied[f"{reply_topic}#{leave_id}"] == leave_reply
    expectations += [
        (leave_text, LeaveSession(
            request_id=leave_id, session_id=sid, participant="bob")),
        (leave_reply, left[0]),
    ]
    codec_calls.clear()

    for text, message in expectations:
        assert text == reference_xgsp(message)
    for text, event, detail in (
        (announced, "joined", "sip"), (left_announced, "left", ""),
    ):
        message = xml_codec.decode(text)
        assert message == SessionAnnouncement(
            request_id=message.request_id, session_id=sid, event=event,
            participant="bob", detail=detail,
        )
        assert text == reference_xgsp(message)
