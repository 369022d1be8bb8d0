"""Session server + client signaling over the broker."""

import pytest

from repro.broker import Broker
from repro.core.xgsp import (
    FloorAction,
    JoinAccepted,
    JoinRejected,
    SessionCreated,
    SessionTerminated,
    XgspClient,
    XgspSessionServer,
)
from repro.core.xgsp.messages import ListSessions, SessionAnnouncement, SessionList


@pytest.fixture
def broker(net):
    return Broker(net.create_host("broker-host"), broker_id="b0")


@pytest.fixture
def server(net, sim, broker):
    server = XgspSessionServer(net.create_host("xgsp-host"), broker)
    sim.run_for(1.0)
    assert server.client.connected
    return server


def make_xgsp_client(net, sim, broker, participant):
    client = XgspClient(net.create_host(f"{participant}-host"), broker, participant)
    sim.run_for(1.0)
    assert client.broker_client.connected
    return client


def test_create_session_roundtrip(net, sim, broker, server):
    alice = make_xgsp_client(net, sim, broker, "alice")
    created = []
    alice.create_session("seminar", ["audio", "video"], on_created=created.append)
    sim.run_for(2.0)
    assert len(created) == 1
    response = created[0]
    assert isinstance(response, SessionCreated)
    assert response.session_id.startswith("session-")
    assert {m.kind for m in response.media} == {"audio", "video"}
    assert server.session(response.session_id) is not None


def test_join_and_leave(net, sim, broker, server):
    alice = make_xgsp_client(net, sim, broker, "alice")
    bob = make_xgsp_client(net, sim, broker, "bob")
    created = []
    alice.create_session("s", on_created=created.append)
    sim.run_for(2.0)
    sid = created[0].session_id

    joined = []
    bob.join(sid, community="sip", terminal="sip:ua", on_result=joined.append)
    sim.run_for(2.0)
    assert isinstance(joined[0], JoinAccepted)
    assert joined[0].control_topic == f"/xgsp/sessions/{sid}/control"
    session = server.session(sid)
    assert session.roster.participants() == ["bob"]
    assert session.roster.get("bob").community == "sip"

    bob.leave(sid)
    sim.run_for(2.0)
    assert session.roster.participants() == []


def test_join_unknown_session_rejected(net, sim, broker, server):
    bob = make_xgsp_client(net, sim, broker, "bob")
    results = []
    bob.join("session-9999", on_result=results.append)
    sim.run_for(2.0)
    assert isinstance(results[0], JoinRejected)


def test_terminate_session(net, sim, broker, server):
    alice = make_xgsp_client(net, sim, broker, "alice")
    created = []
    alice.create_session("s", on_created=created.append)
    sim.run_for(2.0)
    sid = created[0].session_id
    terminated = []
    alice.terminate(sid, on_result=terminated.append)
    sim.run_for(2.0)
    assert isinstance(terminated[0], SessionTerminated)
    assert terminated[0].reason == "ok"
    results = []
    alice.join(sid, on_result=results.append)
    sim.run_for(2.0)
    assert isinstance(results[0], JoinRejected)


def test_announcements_on_control_topic(net, sim, broker, server):
    alice = make_xgsp_client(net, sim, broker, "alice")
    watcher = make_xgsp_client(net, sim, broker, "watcher")
    created = []
    alice.create_session("s", on_created=created.append)
    sim.run_for(2.0)
    sid = created[0].session_id
    events = []
    watcher.watch_session(
        created[0].control_topic, lambda a: events.append((a.event, a.participant))
    )
    sim.run_for(1.0)
    alice.join(sid)
    sim.run_for(2.0)
    alice.leave(sid)
    sim.run_for(2.0)
    assert ("joined", "alice") in events
    assert ("left", "alice") in events


def test_global_announcements(net, sim, broker, server):
    watcher = make_xgsp_client(net, sim, broker, "watcher")
    events = []
    watcher.watch_announcements(lambda a: events.append(a.event))
    sim.run_for(1.0)
    alice = make_xgsp_client(net, sim, broker, "alice")
    alice.create_session("s")
    sim.run_for(2.0)
    assert "created" in events


def test_announcements_reach_every_watcher_on_one_broker(net, sim, broker, server):
    """An announcement fanned out to two local watchers arrives as one
    shared, read-only payload: both must still decode it."""
    watchers = [make_xgsp_client(net, sim, broker, name) for name in ("w1", "w2")]
    heard = {watcher.participant_id: [] for watcher in watchers}
    for watcher in watchers:
        watcher.watch_announcements(
            lambda a, log=heard[watcher.participant_id]: log.append(a.event)
        )
    sim.run_for(1.0)
    make_xgsp_client(net, sim, broker, "alice").create_session("s")
    sim.run_for(2.0)
    assert heard == {"w1": ["created"], "w2": ["created"]}
    assert [w.payloads_rejected + w.swallowed_errors for w in watchers] == [0, 0]


def test_floor_control_flow(net, sim, broker, server):
    alice = make_xgsp_client(net, sim, broker, "alice")
    bob = make_xgsp_client(net, sim, broker, "bob")
    created = []
    alice.create_session("s", on_created=created.append)
    sim.run_for(2.0)
    sid = created[0].session_id
    alice.join(sid)
    bob.join(sid)
    sim.run_for(2.0)

    stranger = make_xgsp_client(net, sim, broker, "stranger")

    results = []
    for label, client, action in (
        ("stranger", stranger, FloorAction.REQUEST),  # not a member
        ("alice", alice, FloorAction.REQUEST),
        ("bob", bob, FloorAction.REQUEST),
        ("bob-rel", bob, FloorAction.RELEASE),  # not his to release
        ("alice-again", alice, FloorAction.REQUEST),  # keeps it
        ("alice-rel", alice, FloorAction.RELEASE),
        ("bob2", bob, FloorAction.REQUEST),
    ):
        client.floor(
            sid, action, on_result=lambda r, label=label: results.append(
                (label, r.action)
            ),
        )
        sim.run_for(2.0)
    assert results == [
        ("stranger", FloorAction.DENY),
        ("alice", FloorAction.GRANT),
        ("bob", FloorAction.DENY),
        ("bob-rel", FloorAction.DENY),
        ("alice-again", FloorAction.GRANT),
        ("alice-rel", FloorAction.GRANT),
        ("bob2", FloorAction.GRANT),
    ]
    # Leaving releases the floor.
    session = server.session(sid)
    assert session.floor_holder == "bob"
    bob.leave(sid)
    sim.run_for(2.0)
    assert session.floor_holder is None


def test_mute_authorization(net, sim, broker, server):
    alice = make_xgsp_client(net, sim, broker, "alice")
    bob = make_xgsp_client(net, sim, broker, "bob")
    created = []
    alice.create_session("s", on_created=created.append)
    sim.run_for(2.0)
    sid = created[0].session_id
    alice.join(sid)
    bob.join(sid)
    sim.run_for(2.0)

    results = []
    # Creator mutes bob: allowed.
    alice.mute(sid, "bob", on_result=lambda r: results.append(r.detail))
    sim.run_for(2.0)
    # Bob mutes alice: not authorized (only creator or self).
    bob.mute(sid, "alice", on_result=lambda r: results.append(r.detail))
    sim.run_for(2.0)
    # Bob unmutes himself: allowed.
    bob.mute(sid, "bob", muted=False, on_result=lambda r: results.append(r.detail))
    sim.run_for(2.0)
    # The creator mutes someone not in the session: refused.
    alice.mute(sid, "ghost", on_result=lambda r: results.append(r.detail))
    sim.run_for(2.0)
    assert results == ["ok", "not-authorized", "ok", "unknown-member"]
    session = server.session(sid)
    assert session.roster.get("bob").muted is False


def test_invitation_delivered_to_invitee_client(net, sim, broker, server):
    alice = make_xgsp_client(net, sim, broker, "alice")
    bob = make_xgsp_client(net, sim, broker, "bob")
    invitations = []
    bob.watch_announcements(lambda a: None)  # unrelated global watcher
    bob._announcement_handlers.append(
        lambda a: invitations.append(a.detail) if a.event == "invitation" else None
    )
    created = []
    alice.create_session("s", on_created=created.append)
    sim.run_for(2.0)
    alice.invite(created[0].session_id, "bob", note="come")
    sim.run_for(2.0)
    assert invitations and "come" in invitations[0]


def test_list_sessions_filters_by_community(net, sim, broker, server):
    alice = make_xgsp_client(net, sim, broker, "alice")
    alice.create_session("a", community="sip")
    alice.create_session("b", community="h323")
    sim.run_for(2.0)
    results = []
    alice.request(ListSessions(community="sip"), on_response=results.append)
    sim.run_for(2.0)
    assert isinstance(results[0], SessionList)
    assert [s["title"] for s in results[0].sessions] == ["a"]


def test_media_flow_on_session_topics(net, sim, broker, server):
    alice = make_xgsp_client(net, sim, broker, "alice")
    bob = make_xgsp_client(net, sim, broker, "bob")
    created = []
    alice.create_session("s", on_created=created.append)
    sim.run_for(2.0)
    accepted = []
    bob.join(created[0].session_id, on_result=accepted.append)
    sim.run_for(2.0)
    audio_topic = next(
        m.topic for m in accepted[0].media if m.kind == "audio"
    )
    got = []
    bob.subscribe_media(audio_topic, lambda e: got.append(e.payload))
    sim.run_for(1.0)
    alice.publish_media(audio_topic, b"rtp-bytes", 172)
    sim.run_for(1.0)
    assert got == [b"rtp-bytes"]


def test_request_timeout_when_server_absent(net, sim, broker):
    # No session server subscribed: requests go nowhere.
    alice = make_xgsp_client(net, sim, broker, "alice")
    timeouts = []
    alice.request(
        ListSessions(),
        on_response=lambda r: timeouts.append("response"),
        on_timeout=lambda: timeouts.append("timeout"),
        timeout_s=3.0,
    )
    sim.run_for(10.0)
    assert timeouts == ["timeout"]
    assert alice.timeouts == 1


def test_busy_server_sheds_join_then_admits_paced_retry(net, sim, broker):
    """Admission control: a join shed with SessionBusy is retried by the
    client at the server's pace (same request id) and succeeds once the
    server has headroom — no timeout, no duplicate apply."""
    server = XgspSessionServer(
        net.create_host("xgsp-host"), broker,
        max_inflight_requests=64, retry_after_s=1.0,
    )
    sim.run_for(1.0)
    assert server.client.connected
    alice = make_xgsp_client(net, sim, broker, "alice")
    created = []
    alice.create_session("s", on_created=created.append)
    sim.run_for(2.0)
    sid = created[0].session_id

    bob = XgspClient(
        net.create_host("bob-host"), broker, "bob", max_retries=8
    )
    sim.run_for(1.0)
    # Force the bound below any real queue depth: every join sheds.
    server.max_inflight_requests = -1
    joined = []
    bob.join(sid, on_result=joined.append)
    sim.run_for(3.0)
    assert joined == []  # busy answers never resolve the request
    assert server.joins_shed >= 1
    assert bob.busy_rejections >= 1
    handled_while_busy = server.requests_handled

    # Headroom returns; the next paced retry is processed fresh.
    server.max_inflight_requests = 64
    sim.run_for(8.0)
    assert len(joined) == 1
    assert isinstance(joined[0], JoinAccepted)
    assert server.requests_handled == handled_while_busy + 1
    assert server.session(sid).roster.participants() == ["bob"]
    # The counter rides the metrics registry like every other one.
    assert server.metrics.counters_snapshot()["joins_shed"] == server.joins_shed


def test_busy_without_retries_counts_and_times_out(net, sim, broker):
    """A single-shot client (max_retries=0) getting SessionBusy keeps the
    request pending until its timeout — busy is not a resolution."""
    server = XgspSessionServer(
        net.create_host("xgsp-host"), broker, max_inflight_requests=64
    )
    sim.run_for(1.0)
    alice = make_xgsp_client(net, sim, broker, "alice")
    created = []
    alice.create_session("s", on_created=created.append)
    sim.run_for(2.0)
    server.max_inflight_requests = -1
    from repro.core.xgsp.messages import JoinSession

    results, timeouts = [], []
    alice.request(
        JoinSession(session_id=created[0].session_id, participant="alice"),
        on_response=results.append,
        on_timeout=lambda: timeouts.append(True),
    )
    sim.run_for(15.0)
    assert results == []
    assert alice.busy_rejections == 1
    assert timeouts == [True]


def _attributes(obj):
    """The attribute values of ``obj``, in slots or in its dict."""
    if obj is None:
        return []
    names = [
        name
        for cls in type(obj).__mro__
        for name in vars(cls).get("__slots__", ())
        if name != "__dict__" and hasattr(obj, name)
    ]
    values = [getattr(obj, name) for name in names]
    return values + list(getattr(obj, "__dict__", {}).values())


def _randoms_held(client):
    """``random.Random`` objects reachable from a client's own state and
    from its broker client's retry policy (made by its first failover)."""
    import random

    held = _attributes(client)
    held += _attributes(client.broker_client)
    held += _attributes(client.broker_client._failover_backoff)
    return [value for value in held if isinstance(value, random.Random)]


def test_connected_client_holds_no_random_until_a_jittered_retry(
    net, sim, broker, server
):
    """Retry jitter streams are built on first use: a connected client
    that never retries carries none (one per client is ~2.9 KB)."""
    alice = XgspClient(
        net.create_host("alice-host"), broker, "alice", max_retries=3
    )
    sim.run_for(1.0)
    assert alice.broker_client.connected
    assert _randoms_held(alice) == []
    alice.create_session("s")
    [stream] = _randoms_held(alice)
    sim.run_for(2.0)
    assert _randoms_held(alice) == [stream]
