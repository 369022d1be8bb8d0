"""Experiment abl-broker-network: the "distributed sets of brokers".

Section 2.3 motivates a *dynamic collection of brokers*; this ablation
shows why: spreading the Figure 3 fan-out across a broker network divides
the per-broker send load, so the same 400 receivers see lower delay as
brokers are added.
"""

from repro.bench.metrics import mean
from repro.bench.workload import (
    CLIENT_RECV_COST_S,
    GIGABIT_LAN,
    make_paper_video_source,
)
from repro.broker.client import BrokerClient
from repro.broker.network import BrokerNetwork
from repro.rtp.stats import ReceiverStats
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

TOPIC = "/abl/video"
RECEIVERS = 400
BROKER_COUNTS = (1, 2, 4, 8)
PACKETS = 600
QUICK_PACKETS = 200


def run_point(broker_count: int, packets: int, seed: int = 0) -> dict:
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    if broker_count == 1:
        bnet = BrokerNetwork.single(net, "broker-0", link=GIGABIT_LAN)
    else:
        bnet = BrokerNetwork.star(net, leaves=broker_count - 1, link=GIGABIT_LAN)
    brokers = bnet.brokers()

    # Receivers spread evenly across brokers, 50 per client machine.
    hosts = [
        net.create_host(f"client-machine-{i}", link=GIGABIT_LAN,
                        recv_cpu_cost_s=CLIENT_RECV_COST_S)
        for i in range(8)
    ]
    stats = []
    for index in range(RECEIVERS):
        client = BrokerClient(hosts[index % len(hosts)],
                              client_id=f"r{index:03d}")
        client.connect(brokers[index % len(brokers)])
        if index % 33 == 0:
            receiver_stats = ReceiverStats()
            stats.append(receiver_stats)
            client.subscribe(
                TOPIC,
                lambda event, s=receiver_stats: s.on_packet(event.payload, sim.now),
            )
        else:
            client.subscribe(TOPIC, lambda event: None)

    sender_host = net.create_host("sender-machine", link=GIGABIT_LAN)
    sender = BrokerClient(sender_host, client_id="sender")
    sender.connect(brokers[0])
    sim.run_for(8.0)

    source = make_paper_video_source(
        sim, lambda p: sender.publish(TOPIC, p, p.wire_size), seed=seed
    )
    source.start()
    while source.packets_sent < packets:
        sim.run_for(1.0)
    source.stop()
    sim.run_for(5.0)

    delays = [d for s in stats for d in s.delays_s]
    return {
        "brokers": broker_count,
        "avg_delay_ms": mean(delays) * 1000.0,
        "received": sum(s.packet_count for s in stats),
    }


def scenario(quick):
    packets = QUICK_PACKETS if quick else PACKETS
    points = [run_point(count, packets) for count in BROKER_COUNTS]
    delays = [point["avg_delay_ms"] for point in points]
    expected = points[0]["received"]
    return {
        "params": {
            "receivers": RECEIVERS,
            "packets": packets,
            "broker_counts": list(BROKER_COUNTS),
        },
        "results": {
            **{f"avg_delay_ms_{p['brokers']}_brokers": p["avg_delay_ms"] for p in points},
            "points": points,
        },
        "gates": {
            # Everyone got the stream in every topology.
            "every_topology_delivers": all(
                abs(p["received"] - expected) <= expected * 0.02 for p in points
            ),
            # Adding brokers divides the fan-out load.
            "eight_brokers_halve_delay": delays[-1] < 0.5 * delays[0],
            # Monotone non-increasing within 10 % noise.
            "delay_falls_with_brokers": all(
                later < earlier * 1.10
                for earlier, later in zip(delays, delays[1:])
            ),
        },
    }
