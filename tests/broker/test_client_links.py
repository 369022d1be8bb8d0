"""Clients over TCP, SSL, and HTTP-tunnel links (Section 2.3's transport list)."""

import pytest

from repro.broker import BrokerClient, BrokerNetwork, Failover, LinkType
from repro.simnet import Firewall, HttpTunnelProxy

from tests.broker.conftest import make_client


@pytest.mark.parametrize("link_type", [LinkType.TCP, LinkType.SSL])
def test_stream_link_pubsub(net, sim, single_broker, link_type):
    publisher = make_client(net, sim, single_broker, "pub", link_type=link_type)
    subscriber = make_client(net, sim, single_broker, "sub", link_type=link_type)
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    for i in range(10):
        publisher.publish("/t", i, 200)
    sim.run_for(2.0)
    assert [e.payload for e in got] == list(range(10))


def test_mixed_link_types_in_one_session(net, sim, single_broker):
    udp_client = make_client(net, sim, single_broker, "u", LinkType.UDP)
    tcp_client = make_client(net, sim, single_broker, "t", LinkType.TCP)
    ssl_client = make_client(net, sim, single_broker, "s", LinkType.SSL)
    got = {"u": [], "t": [], "s": []}
    for client in (udp_client, tcp_client, ssl_client):
        client.subscribe(
            "/mixed", lambda e, cid=client.client_id: got[cid].append(e.payload)
        )
    sim.run_for(1.0)
    udp_client.publish("/mixed", "from-udp", 50)
    tcp_client.publish("/mixed", "from-tcp", 50)
    sim.run_for(2.0)
    assert got["u"] == ["from-tcp"]
    assert got["t"] == ["from-udp"]
    assert sorted(got["s"]) == ["from-tcp", "from-udp"]


def test_firewalled_client_fails_over_udp_but_works_via_tunnel(net, sim, single_broker):
    proxy_host = net.create_host("proxy-host")
    proxy = HttpTunnelProxy(proxy_host, 8080)

    inside = net.create_host("inside")
    Firewall().attach(inside)

    # Tunnel link: connect succeeds through the proxy pinhole.
    client = BrokerClient(inside, client_id="tunneled")
    client.connect(single_broker, link_type=LinkType.HTTP_TUNNEL, proxy=proxy.address)
    sim.run_for(1.0)
    assert client.connected

    got = []
    client.subscribe("/t", got.append)
    publisher = make_client(net, sim, single_broker, "pub")
    sim.run_for(1.0)
    publisher.publish("/t", "through the wall", 100)
    sim.run_for(1.0)
    assert [e.payload for e in got] == ["through the wall"]


def test_tunnel_requires_proxy_argument(net, single_broker):
    host = net.create_host("h")
    client = BrokerClient(host, client_id="c")
    with pytest.raises(ValueError):
        client.connect(single_broker, link_type=LinkType.HTTP_TUNNEL)


def test_ssl_slower_than_tcp(net, sim, single_broker):
    """SSL pays handshake + crypto: same delivery, strictly later."""
    results = {}
    for name, link_type in (("tcp", LinkType.TCP), ("ssl", LinkType.SSL)):
        publisher = make_client(net, sim, single_broker, f"pub-{name}", link_type)
        subscriber = make_client(net, sim, single_broker, f"sub-{name}", link_type)
        delays = []
        subscriber.subscribe(
            f"/{name}", lambda e: delays.append(sim.now - e.published_at)
        )
        sim.run_for(1.0)
        for _ in range(20):
            publisher.publish(f"/{name}", b"x", 800)
        sim.run_for(2.0)
        assert len(delays) == 20
        results[name] = sum(delays) / len(delays)
    assert results["ssl"] > results["tcp"]


@pytest.mark.parametrize(
    "link_type", [LinkType.UDP, LinkType.TCP, LinkType.SSL]
)
def test_client_fails_over_when_its_broker_crashes(net, sim, link_type):
    """A crashed broker closes its stream connections; the client's next
    send (a keepalive) must fail over, not raise out of the run."""
    bnet = BrokerNetwork.chain(net, 2)
    first, second = bnet.broker("broker-0"), bnet.broker("broker-1")
    client = BrokerClient(
        net.create_host("c"), client_id="c",
        failover=Failover([first, second], keepalive_s=0.5),
    )
    client.connect(first, link_type=link_type)
    sim.run_for(1.0)
    assert client.broker_id == "broker-0"
    bnet.crash_broker("broker-0")
    sim.run_for(10.0)
    assert client.connected
    assert client.broker_id == "broker-1"
    assert (client.link_losses, client.failovers) == (1, 1)


@pytest.mark.parametrize(
    "timing", [dict(keepalive_s=0.0), dict(keepalive_s=-1.0), dict(miss_limit=0)]
)
def test_failover_rejects_a_timing_that_never_detects_loss(timing):
    with pytest.raises(ValueError, match="keepalive_s > 0 and miss_limit >= 1"):
        Failover(**timing)


def test_reconnect_after_disconnect_not_allowed_on_same_object(net, sim, single_broker):
    client = make_client(net, sim, single_broker, "c")
    with pytest.raises(RuntimeError):
        client.connect(single_broker)
