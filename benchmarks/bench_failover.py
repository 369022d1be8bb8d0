"""Experiment failover: broker loss mid-conference.

The paper's "dynamic collection of brokers" is only dynamic if endpoints
survive a broker leaving it.  This scenario runs a two-broker conference
— a publisher streaming 50 pps on the surviving broker, SUBSCRIBERS
keepalive-enabled subscribers on the broker that is about to die — kills
the media broker mid-stream, and measures:

* the **media gap** each subscriber observes (largest inter-arrival time
  across the kill), which bounds detection + reconnect + replay latency;
* **zero-leak recovery** on the survivor: every subscription replayed
  exactly once, no remote interest left behind by the dead broker, and a
  clean teardown back to zero subscriptions.

The conference is small, so ``quick`` runs it at full size.
"""

from repro.broker.client import BrokerClient, Failover
from repro.broker.network import BrokerNetwork
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

TOPIC = "/bench/failover/session-0/audio"
SUBSCRIBERS = 20
PUBLISH_INTERVAL_S = 0.02  # 50 pps
KILL_AT_S = 5.0
RUN_FOR_S = 15.0
KEEPALIVE_INTERVAL_S = 0.25
KEEPALIVE_MISS_LIMIT = 2

#: Detection needs (miss_limit + 1) keepalive ticks in the worst phase;
#: reconnect + replay ride on LAN RTTs on top.  Anything near this bound
#: means the failover path added no avoidable stalls.
MAX_ACCEPTABLE_GAP_S = KEEPALIVE_INTERVAL_S * (KEEPALIVE_MISS_LIMIT + 2) + 0.5


def scenario(quick):
    sim = Simulator()
    net = Network(sim, SeededStreams(42))
    bnet = BrokerNetwork.chain(net, 2)
    survivor = bnet.broker("broker-0")
    doomed = bnet.broker("broker-1")

    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(survivor)

    arrivals = {}  # client_id -> [sim.now per packet]
    subscribers = []
    for index in range(SUBSCRIBERS):
        client_id = f"sub-{index:02d}"
        client = BrokerClient(
            net.create_host(f"{client_id}-host"),
            client_id=client_id,
            failover=Failover(
                [survivor],
                keepalive_s=KEEPALIVE_INTERVAL_S,
                miss_limit=KEEPALIVE_MISS_LIMIT,
            ),
        )
        client.connect(doomed)
        arrivals[client_id] = []
        client.subscribe(
            TOPIC,
            lambda event, log=arrivals[client_id]: log.append(sim.now),
        )
        subscribers.append(client)
    sim.run_for(2.0)
    connected = all(c.connected for c in subscribers)

    def publish_tick(i=[0]):
        publisher.publish(TOPIC, i[0], 200)
        i[0] += 1
        sim.schedule(PUBLISH_INTERVAL_S, publish_tick)

    publish_tick()
    sim.schedule(KILL_AT_S - 2.0, bnet.remove_broker, "broker-1")
    sim.run_for(RUN_FOR_S)

    gaps = [
        max((b - a for a, b in zip(log, log[1:])), default=float("inf"))
        for log in arrivals.values()
    ]
    stats_after = survivor.statistics()

    # Clean teardown: nothing left behind once everyone hangs up.
    for client in subscribers:
        client.disconnect()
    publisher.disconnect()
    sim.run_for(2.0)
    leaked_local = survivor.statistics()["local_subscriptions"]

    worst_gap = max(gaps)
    return {
        "params": {
            "subscribers": SUBSCRIBERS,
            "publish_rate_pps": 1.0 / PUBLISH_INTERVAL_S,
            "keepalive_interval_s": KEEPALIVE_INTERVAL_S,
            "keepalive_miss_limit": KEEPALIVE_MISS_LIMIT,
            "media_gap_budget_s": MAX_ACCEPTABLE_GAP_S,
        },
        "results": {
            "media_gap_worst_s": worst_gap,
            "media_gap_mean_s": sum(gaps) / len(gaps),
            "failovers": sum(c.failovers for c in subscribers),
            "link_losses": sum(c.link_losses for c in subscribers),
            "subscriptions_replayed":
                sum(c.subscriptions_replayed for c in subscribers),
            "heartbeats_sent": sum(c.heartbeats_sent for c in subscribers),
            "heartbeats_acked": sum(c.heartbeats_acked for c in subscribers),
            "leaked_local_subscriptions_after_teardown": leaked_local,
            "leaked_remote_interest": stats_after["remote_interest"],
            "survivor_stats_after_failover": stats_after,
        },
        "gates": {
            "subscribers_connected_before_kill": connected,
            "each_subscriber_failed_over_once": all(
                (c.failovers, c.link_losses, c.subscriptions_replayed)
                == (1, 1, 1)
                for c in subscribers
            ),
            "every_subscriber_kept_receiving":
                all(len(log) > 0 for log in arrivals.values()),
            "media_gap_within_budget": worst_gap <= MAX_ACCEPTABLE_GAP_S,
            # Exactly the replayed subscriptions, no interest left behind
            # by the dead broker.
            "survivor_holds_exactly_the_replays":
                stats_after["local_subscriptions"] == SUBSCRIBERS
                and stats_after["remote_interest"] == 0,
            "zero_leaks_after_teardown":
                leaked_local == 0 and survivor.client_count() == 0,
        },
    }
