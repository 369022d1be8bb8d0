"""H.225/H.245 call flows and media channels."""

import pytest

from repro.h323 import Gatekeeper, H323Mcu, H323Terminal
from repro.h323.pdu import MediaCapability, intersect_capabilities
from repro.rtp.packet import PayloadType, RtpPacket

from tests.h323.test_gatekeeper import make_terminal


@pytest.fixture
def gatekeeper(net):
    return Gatekeeper(net.create_host("gk-host"))


def rtp(seq, size=640):
    return RtpPacket(
        ssrc=5, sequence=seq, timestamp=seq * 160,
        payload_type=PayloadType.PCMU, payload_size=size,
    )


def connect_pair(net, sim, gatekeeper):
    alice = make_terminal(net, sim, gatekeeper, "alice")
    bob = make_terminal(net, sim, gatekeeper, "bob")
    bob.on_incoming_call = lambda setup: True
    connected = []
    alice.call("bob", on_connected=connected.append)
    sim.run_for(2.0)
    assert len(connected) == 1
    return alice, bob, connected[0]


def test_full_call_setup(net, sim, gatekeeper):
    alice, bob, call = connect_pair(net, sim, gatekeeper)
    assert call.state == call.CONNECTED
    # Capability intersection produced both medias.
    media_kinds = {c.media for c in call.common_capabilities}
    assert media_kinds == {"audio", "video"}
    # Both send directions learned an RTP destination.
    assert call.remote_media_address("audio") is not None
    assert call.remote_media_address("video") is not None
    bob_call = bob.calls()[0]
    assert bob_call.state == bob_call.CONNECTED


def test_capability_intersection_limits_channels(net, sim, gatekeeper):
    alice = make_terminal(net, sim, gatekeeper, "alice")
    audio_only_host = net.create_host("bob-host")
    bob = H323Terminal(
        audio_only_host, "bob", gatekeeper.address,
        capabilities=[MediaCapability.default_audio()],
    )
    results = []
    bob.register(results.append)
    sim.run_for(1.0)
    bob.on_incoming_call = lambda setup: True
    connected = []
    alice.call("bob", on_connected=connected.append)
    sim.run_for(2.0)
    call = connected[0]
    assert {c.media for c in call.common_capabilities} == {"audio"}
    assert call.remote_media_address("video") is None


def test_intersect_capabilities_minimum_bitrate():
    ours = [MediaCapability("video", "h261", 768_000.0)]
    theirs = [MediaCapability("video", "h261", 384_000.0)]
    common = intersect_capabilities(ours, theirs)
    assert common == [MediaCapability("video", "h261", 384_000.0)]


def test_call_rejected_by_callee(net, sim, gatekeeper):
    alice = make_terminal(net, sim, gatekeeper, "alice")
    bob = make_terminal(net, sim, gatekeeper, "bob")
    bob.on_incoming_call = lambda setup: False
    released = []
    call = alice.call("bob")
    call.on_released = lambda c: released.append(c.release_reason)
    sim.run_for(2.0)
    assert released == ["destinationRejection"]
    assert alice.calls() == []


def test_media_flows_both_ways(net, sim, gatekeeper):
    alice, bob, call = connect_pair(net, sim, gatekeeper)
    alice_got, bob_got = [], []
    alice.on_media = lambda c, p: alice_got.append(p.sequence)
    bob.on_media = lambda c, p: bob_got.append(p.sequence)
    bob_call = bob.calls()[0]
    for i in range(5):
        call.send_media("audio", rtp(i))
        bob_call.send_media("audio", rtp(100 + i))
    sim.run_for(1.0)
    assert sorted(bob_got) == [0, 1, 2, 3, 4]
    assert sorted(alice_got) == [100, 101, 102, 103, 104]


def test_send_media_without_channel_raises(net, sim, gatekeeper):
    alice = make_terminal(net, sim, gatekeeper, "alice")
    call = alice.call("nobody")
    with pytest.raises(RuntimeError):
        call.send_media("audio", rtp(0))


def test_hangup_releases_both_sides(net, sim, gatekeeper):
    alice, bob, call = connect_pair(net, sim, gatekeeper)
    released = []
    bob.calls()[0].on_released = lambda c: released.append("bob")
    call.hangup()
    sim.run_for(1.0)
    assert released == ["bob"]
    assert alice.calls() == [] and bob.calls() == []


def test_hangup_closes_the_call_transport_on_both_ends(net, sim, gatekeeper):
    """A released call leaves no connection open and no port bound on
    either end: H.225 signaling, H.245 and the callee's H.245 listener
    all close (only the terminals' media sockets, shared by every call,
    stay bound)."""
    alice = make_terminal(net, sim, gatekeeper, "alice")
    bob = make_terminal(net, sim, gatekeeper, "bob")
    bound = {terminal: set(terminal.host._handlers) for terminal in (alice, bob)}
    bob.on_incoming_call = lambda setup: True
    connected = []
    call = alice.call("bob", on_connected=connected.append)
    sim.run_for(2.0)
    assert connected == [call]
    bob_call = bob.calls()[0]
    call.hangup()
    sim.run_for(1.0)
    for released in (call, bob_call):
        assert released.state == released.RELEASED
        for connection in (released.signaling, released.h245):
            assert connection.state == connection.FINISHED, connection
    assert bob_call.h245_listener._closed
    for terminal in (alice, bob):
        media_ports = {
            socket.local_address.port
            for socket in terminal._media_sockets.values()
        }
        assert set(terminal.host._handlers) == bound[terminal] | media_ports


def test_mcu_reflects_between_participants(net, sim, gatekeeper):
    mcu_host = net.create_host("mcu-host")
    mcu = H323Mcu(mcu_host, "conference", gatekeeper.address)
    ok = []
    mcu.register(ok.append)
    sim.run_for(1.0)
    assert ok == [True]

    terminals = [make_terminal(net, sim, gatekeeper, f"t{i}") for i in range(3)]
    connected = []
    for terminal in terminals:
        terminal.call("conference", on_connected=connected.append)
    sim.run_for(3.0)
    assert len(connected) == 3
    assert mcu.participants() == ["t0", "t1", "t2"]

    inboxes = {f"t{i}": [] for i in range(3)}
    for i, terminal in enumerate(terminals):
        terminal.on_media = lambda c, p, k=f"t{i}": inboxes[k].append(p.sequence)
    # t0 speaks; t1 and t2 hear; t0 does not hear itself.
    connected_by_alias = {c.terminal.alias: c for c in connected}
    t0_call = connected_by_alias["t0"]
    for i in range(4):
        t0_call.send_media("audio", rtp(i))
    sim.run_for(1.0)
    assert sorted(inboxes["t1"]) == [0, 1, 2, 3]
    assert sorted(inboxes["t2"]) == [0, 1, 2, 3]
    assert inboxes["t0"] == []
    assert mcu.packets_reflected == 8


def test_mcu_capacity_limit(net, sim, gatekeeper):
    mcu = H323Mcu(net.create_host("mcu-host"), "conf", gatekeeper.address,
                  max_participants=1)
    mcu.register()
    sim.run_for(1.0)
    t0 = make_terminal(net, sim, gatekeeper, "t0")
    t1 = make_terminal(net, sim, gatekeeper, "t1")
    connected, released = [], []
    t0.call("conf", on_connected=connected.append)
    sim.run_for(2.0)
    call = t1.call("conf")
    call.on_released = lambda c: released.append(c.release_reason)
    sim.run_for(2.0)
    assert len(connected) == 1
    assert released == ["destinationRejection"]
