"""Experiment abl-p2p-vs-cs: client-server vs JXTA-like peer-to-peer.

Section 2.3: NaradaBrokering "can operate either in a client-server mode
like JMS or in a completely distributed JXTA-like peer-to-peer mode.  By
combining these two disparate models, NaradaBrokering can allow optimized
performance-functionality trade-offs for different scenarios."

The trade-off quantified: for a small ad-hoc group, direct peering
removes the broker hop (lower latency); the broker buys functionality —
here, reaching a firewalled member the mesh cannot touch.  The runs are
small, so ``quick`` runs them at full size.
"""

from repro.bench.metrics import mean
from repro.broker.broker import Broker
from repro.broker.client import BrokerClient
from repro.broker.p2p import P2PGroup, RendezvousService
from repro.rtp.media import AudioSource
from repro.simnet.firewall import Firewall
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

GROUP_SIZE = 4
DURATION_S = 15.0


def run_brokered(seed=0) -> float:
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    delays = []
    clients = []
    for index in range(GROUP_SIZE):
        client = BrokerClient(net.create_host(f"m{index}-host"),
                              client_id=f"m{index}")
        client.connect(broker)
        clients.append(client)
        if index > 0:
            client.subscribe(
                "/room/audio",
                lambda event: delays.append(sim.now - event.published_at),
            )
    sim.run_for(3.0)
    source = AudioSource(
        sim, lambda p: clients[0].publish("/room/audio", p, p.wire_size)
    )
    source.start()
    sim.run_for(DURATION_S)
    source.stop()
    sim.run_for(1.0)
    return mean(delays) * 1000.0


def run_p2p(seed=0) -> float:
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    rendezvous = RendezvousService(net.create_host("rdv-host"))
    peers = []
    delays = []
    for index in range(GROUP_SIZE):
        peer = P2PGroup(net.create_host(f"m{index}-host"), f"m{index}",
                        "room", rendezvous.address)
        peer.join()
        peers.append(peer)
        if index > 0:
            peer.subscribe(
                "/room/audio",
                lambda event: delays.append(sim.now - event.published_at),
            )
    sim.run_for(3.0)
    source = AudioSource(
        sim, lambda p: peers[0].publish("/room/audio", p, p.wire_size)
    )
    source.start()
    sim.run_for(DURATION_S)
    source.stop()
    sim.run_for(1.0)
    return mean(delays) * 1000.0


def reach_firewalled_member() -> dict:
    """Functionality side of the trade-off: messages a firewalled member
    receives over a pure mesh and over the hybrid (P2P + broker relay)."""
    sim = Simulator()
    net = Network(sim, SeededStreams(1))
    rendezvous = RendezvousService(net.create_host("rdv-host"))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    inside = net.create_host("inside")
    Firewall().attach(inside)

    # Pure-mesh attempt: carol advertises a direct address the others
    # cannot actually deliver to (her firewall drops unsolicited UDP).
    mesh_carol = P2PGroup(inside, "carol", "mesh", rendezvous.address)
    mesh_carol.join()
    mesh_alice = P2PGroup(net.create_host("alice-host"), "alice", "mesh",
                          rendezvous.address)
    mesh_alice.join()
    mesh_got = []
    mesh_carol.subscribe("/x", mesh_got.append)
    sim.run_for(2.0)
    mesh_alice.publish("/x", b"hello", 100)
    sim.run_for(2.0)

    # Hybrid: carol is relayed through the broker.
    relay = BrokerClient(inside, client_id="carol-relay")
    relay.connect(broker)
    alice_relay = BrokerClient(net.create_host("alice2-host"),
                               client_id="alice-relay")
    alice_relay.connect(broker)
    sim.run_for(2.0)
    hybrid_carol = P2PGroup(inside, "carol2", "hybrid", rendezvous.address,
                            broker_client=relay, direct=False)
    hybrid_carol.join()
    hybrid_alice = P2PGroup(net.create_host("alice3-host"), "alice2",
                            "hybrid", rendezvous.address,
                            broker_client=alice_relay)
    hybrid_alice.join()
    hybrid_got = []
    hybrid_carol.subscribe("/x", hybrid_got.append)
    sim.run_for(2.0)
    hybrid_alice.publish("/x", b"hello", 100)
    sim.run_for(3.0)
    return {"mesh": len(mesh_got), "hybrid": len(hybrid_got)}


def scenario(quick):
    brokered = run_brokered()
    p2p = run_p2p()
    reached = reach_firewalled_member()
    return {
        "params": {"group_size": GROUP_SIZE, "duration_s": DURATION_S},
        "results": {
            "brokered_avg_delay_ms": brokered,
            "p2p_avg_delay_ms": p2p,
            "pure_mesh_delivered": reached["mesh"],
            "hybrid_delivered": reached["hybrid"],
        },
        "gates": {
            "direct_peering_beats_the_broker_hop": p2p < brokered,
            "pure_mesh_cannot_reach_firewalled": reached["mesh"] == 0,
            "hybrid_reaches_firewalled": reached["hybrid"] == 1,
        },
    }
