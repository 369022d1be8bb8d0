"""Tests for multicast groups."""

import pytest

from repro.simnet import Address, UdpSocket
from repro.simnet.multicast import MulticastGroupAddress, is_multicast


def test_is_multicast_detects_class_d():
    assert is_multicast("224.0.0.1")
    assert is_multicast("239.255.0.1")
    assert not is_multicast("192.168.0.1")
    assert not is_multicast("hosta")
    assert not is_multicast("240.0.0.1")


def test_allocator_yields_unique_class_d_addresses():
    alloc = MulticastGroupAddress()
    addrs = [alloc.allocate() for _ in range(300)]
    assert len(set(addrs)) == 300
    assert all(is_multicast(a) for a in addrs)


def test_group_delivery_to_all_members(net, sim):
    sender_host = net.create_host("sender")
    group = "233.2.0.1"
    got = {}
    for i in range(5):
        host = net.create_host(f"m{i}")
        sock = UdpSocket(host)
        sock.join_group(group)
        sock.on_receive(
            lambda p, s, d, i=i: got.setdefault(i, []).append(p)
        )
    sender = UdpSocket(sender_host)
    sender.sendto("announce", 50, Address(group, sender.port))
    sim.run()
    assert all(got[i] == ["announce"] for i in range(5))


def test_sender_socket_does_not_loop_back(net, sim):
    host = net.create_host("h")
    group = "233.2.0.9"
    sock = UdpSocket(host)
    sock.join_group(group)
    got = []
    sock.on_receive(lambda p, s, d: got.append(p))
    sock.sendto("x", 10, Address(group, sock.port))
    sim.run()
    assert got == []


def test_leave_group_stops_delivery(net, sim):
    a = net.create_host("a")
    b = net.create_host("b")
    group = "233.2.0.2"
    receiver = UdpSocket(b)
    receiver.join_group(group)
    got = []
    receiver.on_receive(lambda p, s, d: got.append(p))
    sender = UdpSocket(a)
    sender.sendto("one", 10, Address(group, 1))
    sim.run()
    receiver.leave_group(group)
    sender.sendto("two", 10, Address(group, 1))
    sim.run()
    assert got == ["one"]


def test_multicast_disabled_host_cannot_join(net):
    host = net.create_host("nomc", multicast_enabled=False)
    sock = UdpSocket(host)
    with pytest.raises(RuntimeError):
        sock.join_group("233.2.0.3")


def test_join_non_multicast_address_rejected(net):
    host = net.create_host("h")
    sock = UdpSocket(host)
    with pytest.raises(ValueError):
        sock.join_group("10.0.0.1")


def test_closing_socket_leaves_groups(net, sim):
    a = net.create_host("a")
    b = net.create_host("b")
    group = "233.2.0.4"
    sock = UdpSocket(b)
    sock.join_group(group)
    sock.close()
    assert net.group_members(group) == set()


def test_a_group_send_serializes_once_and_routes_each_copy_like_unicast():
    """Each member's copy leaves the NIC with the group datagram and is
    then routed as a unicast datagram sent at that moment would be; a
    member on the sending host is no loopback (it crosses the fabric).
    Taps see the group datagram once."""
    from repro.simnet import LinkProfile, Network, SeededStreams, Simulator

    tapped = []

    def arrivals(dst):
        sim = Simulator()
        net = Network(sim, SeededStreams(5))
        link = LinkProfile(bandwidth_bps=1e6, jitter_s=0.0)
        sender = net.create_host("s", link=link)
        net.add_tap(lambda d: tapped.append(d.dst))
        got = []
        for name in ("s", "m"):
            host = sender if name == "s" else net.create_host(name, link=link)
            host.bind(7, lambda d: got.append((d.dst, sim.now)))
            net.join_group("233.2.0.9", Address(name, 7))
        sender.send(1, Address(dst, 7), "x", 1000)
        sim.run()
        return got, sender.nic.sent_packets

    group, sent = arrivals("233.2.0.9")
    assert tapped == [Address("233.2.0.9", 7)]
    [(_, unicast_at)], _ = arrivals("m")
    assert sent == 1  # one pass through the NIC for the whole group
    # The links are alike, so both copies land when the unicast did.
    assert sorted(group) == [
        (Address("m", 7), unicast_at), (Address("s", 7), unicast_at)
    ]
