"""Experiment abl-transport: TCP, UDP, SSL and HTTP-tunnel client links.

Section 2.3: NaradaBrokering "is able to provide services for TCP, UDP,
Multicast, SSL and raw RTP clients" and supports "communication through
firewalls and proxies".  This ablation quantifies the trade: what each
link type costs in media latency relative to raw UDP, and what the
tunnel buys with it — reachability behind a NAT/firewall with a short
UDP pinhole timeout, where an idle plain-UDP subscriber goes deaf and
the tunnel's keepalives hold the path open.  The runs are small, so
``quick`` runs them at full size.
"""

from repro.bench.metrics import mean
from repro.broker.broker import Broker
from repro.broker.client import BrokerClient
from repro.broker.links import LinkType
from repro.rtp.media import AudioSource
from repro.simnet.firewall import Firewall, FirewallPolicy, HttpTunnelProxy
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

TOPIC = "/abl/audio"
DURATION_S = 20.0
LINKS = [LinkType.UDP, LinkType.TCP, LinkType.SSL, LinkType.HTTP_TUNNEL]
#: Idle time behind the firewall: longer than its 30 s UDP pinhole.
IDLE_S = 90.0
PINHOLE_S = 30.0
PROBE_EVENTS = 5


def run_link(link_type: LinkType) -> dict:
    sim = Simulator()
    net = Network(sim, SeededStreams(3))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    proxy = None
    subscriber_host = net.create_host("subscriber-host")
    if link_type == LinkType.HTTP_TUNNEL:
        proxy = HttpTunnelProxy(net.create_host("proxy-host"), 8080)
        Firewall().attach(subscriber_host)

    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(broker)  # publisher always UDP: isolate the receive leg
    subscriber = BrokerClient(subscriber_host, client_id="sub")
    subscriber.connect(
        broker, link_type=link_type,
        proxy=proxy.address if proxy is not None else None,
    )
    delays = []
    subscriber.subscribe(
        TOPIC, lambda event: delays.append(sim.now - event.published_at)
    )
    sim.run_for(3.0)
    source = AudioSource(
        sim, lambda p: publisher.publish(TOPIC, p, p.wire_size)
    )
    source.start()
    sim.run_for(DURATION_S)
    source.stop()
    sim.run_for(2.0)
    return {"received": len(delays), "avg_delay_ms": mean(delays) * 1000.0}


def idle_behind_firewall(link_type: LinkType) -> int:
    """Events an idle subscriber behind the firewall still receives."""
    sim = Simulator()
    net = Network(sim, SeededStreams(5))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    proxy = HttpTunnelProxy(net.create_host("proxy-host"), 8080)
    inside = net.create_host("inside")
    Firewall(FirewallPolicy(pinhole_timeout_s=PINHOLE_S)).attach(inside)
    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(broker)
    subscriber = BrokerClient(inside, client_id="sub")
    subscriber.connect(
        broker, link_type=link_type,
        proxy=proxy.address if link_type == LinkType.HTTP_TUNNEL else None,
    )
    got = []
    subscriber.subscribe(TOPIC, got.append)
    sim.run_for(5.0)
    sim.run_for(IDLE_S)  # subscriber is silent; UDP pinhole expires
    for _ in range(PROBE_EVENTS):
        publisher.publish(TOPIC, b"x", 200)
    sim.run_for(5.0)
    return len(got)


def scenario(quick):
    links = {str(link_type): run_link(link_type) for link_type in LINKS}
    udp, tcp, ssl, tunnel = (links[str(lt)] for lt in LINKS)
    idle = {
        str(lt): idle_behind_firewall(lt)
        for lt in (LinkType.UDP, LinkType.HTTP_TUNNEL)
    }
    return {
        "params": {
            "duration_s": DURATION_S,
            "pinhole_timeout_s": PINHOLE_S,
            "idle_s": IDLE_S,
            "probe_events": PROBE_EVENTS,
        },
        "results": {
            **{f"{name}_avg_delay_ms": r["avg_delay_ms"] for name, r in links.items()},
            "links": links,
            "idle_subscriber_events_received": idle,
        },
        "gates": {
            "every_link_delivers": all(
                r["received"] >= udp["received"] * 0.98 for r in links.values()
            ),
            "tcp_costs_more_than_udp":
                tcp["avg_delay_ms"] > udp["avg_delay_ms"],
            "ssl_costs_more_than_tcp":
                ssl["avg_delay_ms"] > tcp["avg_delay_ms"],
            "tunnel_costs_more_than_udp":
                tunnel["avg_delay_ms"] > udp["avg_delay_ms"],
            "idle_udp_subscriber_goes_deaf": idle["udp"] == 0,
            "tunnel_keepalives_hold_the_path": idle["http-tunnel"] == PROBE_EVENTS,
        },
    }
