"""Experiment chaos: a 5-broker mesh conference soak under injected faults.

PR 2's failover benchmark measured *client*-side recovery; this one
measures the *mesh* healing itself.  A 5-broker ring runs in autonomous
mode (peer heartbeats + flooded link-state adverts, no central route
pushes at all) while a :class:`repro.simnet.chaos.ChaosSchedule` scripts
a hostile timeline against it:

* t=5 s   — the transit broker on the publisher→subscriber shortest path
            crashes, un-announced;
* t=12 s  — it restarts and rejoins;
* t=18 s  — the mesh partitions 3|2 with subscribers on both sides;
* t=25 s  — the partition heals.

A publisher streams 50 pps conference media from broker-0 the whole
time; subscribers sit on brokers 1, 2, and 3.  Measured:

* the **media gap** each subscriber observes across the crash (bounds
  heartbeat detection + LSA flood + local Dijkstra + re-forwarding);
* **convergence**: every surviving broker's routing settles within the
  heartbeat-detection bound after each fault (``last_route_change_at``);
* **zero leaked interest** after the partition+heal round trip and after
  final teardown.

The soak is small, so ``quick`` runs it at full size.
"""

from repro.broker.client import BrokerClient
from repro.broker.network import BrokerNetwork
from repro.broker.spec import FAST_MESH
from repro.obs.collector import TraceCollector
from repro.obs.slo import AlertLog, SloWatchdog
from repro.obs.trace import Tracer
from repro.simnet.chaos import ChaosSchedule
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

TOPIC = "/bench/chaos/session-0/video"
PUBLISH_INTERVAL_S = 0.02  # 50 pps
RUN_FOR_S = 30.0

#: 1-in-10 publishes traced: enough path samples around each fault to
#: attribute the reroute, at negligible modeled cost.
TRACE_SAMPLE_RATE = 0.1

#: SLO gap budget for the watchdog — deliberately *tighter* than the
#: acceptance budget below so the crash and partition outages actually
#: raise alerts (an SLO that only fires when the gate fails is useless).
ALERT_GAP_BUDGET_S = 0.3
ALERT_CHECK_INTERVAL_S = 0.25

CRASH_AT_S = 5.0
RESTART_AT_S = 12.0
PARTITION_AT_S = 18.0
HEAL_AT_S = 25.0

#: Subscribers and the broker each one attaches to.  broker-3 sits two
#: hops from the publisher with broker-4 (the crash victim) on its
#: shortest path — the cross-mesh observer the acceptance bound is about.
SUBSCRIBER_BROKERS = {"sub-1": "broker-1", "sub-2": "broker-2", "sub-3": "broker-3"}

#: Media-gap budget across the un-announced crash: detection
#: (miss_limit+1 beat intervals in the worst phase) + LSA flood +
#: recompute + the in-flight packets lost before reroute.
MAX_ACCEPTABLE_GAP_S = 1.5


def run_soak() -> dict:
    sim = Simulator()
    net = Network(sim, SeededStreams(42))
    bnet = BrokerNetwork.ring(
        net, 5, mesh=FAST_MESH, tracer=Tracer(TRACE_SAMPLE_RATE)
    )
    sim.run_for(2.0)  # initial LSA convergence
    victim_on_path = bnet.broker("broker-0")._routes.get("broker-3") == "broker-4"

    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(bnet.broker("broker-0"))
    arrivals = {}
    subscribers = {}
    for client_id, broker_name in SUBSCRIBER_BROKERS.items():
        client = BrokerClient(
            net.create_host(f"{client_id}-host"), client_id=client_id
        )
        client.connect(bnet.broker(broker_name))
        arrivals[client_id] = []
        client.subscribe(
            TOPIC, lambda event, log=arrivals[client_id]: log.append(sim.now)
        )
        subscribers[client_id] = client
    sim.run_for(1.0)
    connected = all(c.connected for c in subscribers.values())

    # Ops plane on the publisher-side island: sampled traces and SLO
    # alerts keep flowing through broker-0 across the partition.
    ops_host = net.create_host("ops-host")
    collector = TraceCollector(ops_host, bnet.broker("broker-0"))
    alert_log = AlertLog(ops_host, bnet.broker("broker-0"))
    watchdog = SloWatchdog(
        ops_host, bnet.broker("broker-0"),
        check_interval_s=ALERT_CHECK_INTERVAL_S,
    )
    for client_id in SUBSCRIBER_BROKERS:
        watchdog.watch_media_gap(
            f"media-gap/{client_id}",
            lambda log=arrivals[client_id]: log[-1] if log else None,
            ALERT_GAP_BUDGET_S,
        )

    chaos = ChaosSchedule(bnet, seed=7)
    chaos.crash_broker(CRASH_AT_S, "broker-4", restart_after=RESTART_AT_S - CRASH_AT_S)
    chaos.partition(
        PARTITION_AT_S,
        [["broker-0", "broker-1", "broker-4"], ["broker-2", "broker-3"]],
        heal_after=HEAL_AT_S - PARTITION_AT_S,
    )

    # Sample each live broker's routing epoch once a second alongside media.
    epochs = {}

    def sample_tick():
        for broker in bnet.brokers():
            epochs.setdefault(broker.broker_id, []).append(
                broker.routing_epochs
            )
        sim.schedule(1.0, sample_tick)

    sample_tick()

    def publish_tick(i=[0]):
        publisher.publish(TOPIC, i[0], 200)
        i[0] += 1
        sim.schedule(PUBLISH_INTERVAL_S, publish_tick)

    publish_tick()
    sim.run_for(RUN_FOR_S)

    def worst_gap(log, start, end):
        window = [t for t in log if start <= t <= end]
        if len(window) < 2:
            return float("inf")
        return max(b - a for a, b in zip(window, window[1:]))

    crash_gaps = {
        cid: worst_gap(log, CRASH_AT_S - 1.0, RESTART_AT_S)
        for cid, log in arrivals.items()
    }
    # During the partition, sub-2/sub-3 are on the far island: media
    # cannot reach them and MUST not.  Measure their resume gap after the
    # heal instead (first arrival after HEAL_AT_S minus the heal time).
    heal_resume = {}
    for cid, log in arrivals.items():
        after = [t for t in log if t >= HEAL_AT_S]
        heal_resume[cid] = (after[0] - HEAL_AT_S) if after else float("inf")

    convergence = {
        broker.broker_id: broker.last_route_change_at
        for broker in bnet.brokers()
    }
    stats_mid = {
        broker.broker_id: broker.statistics() for broker in bnet.brokers()
    }

    # Trace forensics: the reroute around the corpse, and the crash gap
    # attributed to the lost hop, straight from the sampled trace paths.
    path_changes = collector.path_changes(TOPIC)
    crash_attribution = collector.attribute_gap(
        TOPIC, CRASH_AT_S, CRASH_AT_S + 0.1, delivered_by="broker-3"
    )
    probe_status = watchdog.probe_status()
    alerts = list(alert_log.alerts)
    traces_collected = len(collector.traces)

    # The ops plane hangs up too: its interest must drain with the rest.
    watchdog.stop()
    collector.disconnect()
    alert_log.disconnect()

    # Teardown: all clients hang up; the mesh must drain to zero state.
    for client in subscribers.values():
        client.disconnect()
    publisher.disconnect()
    sim.run_for(3.0)
    leaks = {
        broker.broker_id: (
            broker.statistics()["local_subscriptions"],
            broker.statistics()["remote_interest"],
        )
        for broker in bnet.brokers()
    }
    return {
        "victim_on_path": victim_on_path,
        "connected": connected,
        "crash_gaps": crash_gaps,
        "heal_resume": heal_resume,
        "convergence": convergence,
        "stats_mid": stats_mid,
        "epochs": epochs,
        "leaks": leaks,
        "chaos_log": chaos.log,
        "subscribers": subscribers,
        "path_changes": path_changes,
        "crash_attribution": crash_attribution,
        "probe_status": probe_status,
        "alerts": alerts,
        "traces_collected": traces_collected,
    }


def scenario(quick):
    soak = run_soak()
    crash_gaps = soak["crash_gaps"]
    heal_resume = soak["heal_resume"]
    evictions = sum(stats["peers_evicted"] for stats in soak["stats_mid"].values())
    sampled_epochs = soak["epochs"]
    attribution = soak["crash_attribution"]
    alerts = soak["alerts"]
    crash_alerts = [a.name for a in alerts if CRASH_AT_S <= a.at <= RESTART_AT_S]
    partition_alerts = [
        a.name for a in alerts if PARTITION_AT_S <= a.at <= HEAL_AT_S
    ]
    # Routing must settle within a detection+flood bound of the last fault.
    detection_bound_s = FAST_MESH.heartbeat_s * (FAST_MESH.miss_limit + 2)
    return {
        "params": {
            "brokers": 5,
            "topology": "ring",
            "publish_rate_pps": 1.0 / PUBLISH_INTERVAL_S,
            "peer_heartbeat_interval_s": FAST_MESH.heartbeat_s,
            "peer_miss_limit": FAST_MESH.miss_limit,
            "timeline": {
                "crash_at_s": CRASH_AT_S,
                "restart_at_s": RESTART_AT_S,
                "partition_at_s": PARTITION_AT_S,
                "heal_at_s": HEAL_AT_S,
            },
            "media_gap_budget_s": MAX_ACCEPTABLE_GAP_S,
            "trace_sample_rate": TRACE_SAMPLE_RATE,
            "alert_gap_budget_s": ALERT_GAP_BUDGET_S,
        },
        "results": {
            "crash_media_gap_worst_s": max(crash_gaps.values()),
            "crash_media_gap_mean_s": sum(crash_gaps.values()) / len(crash_gaps),
            "heal_resume_worst_s": max(heal_resume.values()),
            "peers_evicted_total": evictions,
            "traces_collected": soak["traces_collected"],
            "client_failovers": sum(
                c.failovers for c in soak["subscribers"].values()
            ),
            "chaos_log": [
                {"at": e.at, "kind": e.kind, "detail": e.detail}
                for e in soak["chaos_log"]
            ],
            "crash_media_gaps_s": crash_gaps,
            "heal_resume_s": heal_resume,
            "last_route_change_at_s": soak["convergence"],
            "per_broker_stats": soak["stats_mid"],
            "routing_epoch_series": sampled_epochs,
            "path_changes": soak["path_changes"],
            "crash_attribution": attribution,
            "alerts": [a.as_dict() for a in alerts],
            "probe_status": soak["probe_status"],
            "leaked_after_teardown": {
                broker_id: {
                    "local_subscriptions": leak[0],
                    "remote_interest": leak[1],
                }
                for broker_id, leak in soak["leaks"].items()
            },
        },
        "gates": {
            "victim_on_shortest_path": soak["victim_on_path"],
            "subscribers_connected": soak["connected"],
            "timeline_fired_as_scripted": [e.kind for e in soak["chaos_log"]]
            == ["crash", "restart", "partition", "heal"],
            # The *mesh* rerouted around the corpse; no client failed over.
            "crash_gap_within_budget":
                max(crash_gaps.values()) <= MAX_ACCEPTABLE_GAP_S,
            "no_client_failovers":
                all(c.failovers == 0 for c in soak["subscribers"].values()),
            "heal_resume_within_budget":
                max(heal_resume.values()) <= MAX_ACCEPTABLE_GAP_S,
            "routes_converged": all(
                changed_at <= HEAL_AT_S + detection_bound_s
                for changed_at in soak["convergence"].values()
            ),
            # 2 evictions for the crash, 2 for the partition cuts.
            "mesh_detected_faults": evictions >= 4,
            "every_broker_recomputed": all(
                stats["lsas_originated"] > 0 and stats["routing_epochs"] >= 3
                for stats in soak["stats_mid"].values()
            ),
            "zero_leaks_after_teardown":
                all(leak == (0, 0) for leak in soak["leaks"].values()),
            "monitor_saw_epochs_move": all(
                series[-1] > series[0] for series in sampled_epochs.values()
            ),
            # Sampled traces name broker-4 as the hop lost across the gap.
            "crash_gap_attributed_to_victim": soak["traces_collected"] > 0
            and attribution["explained"]
            and "broker-4" in attribution["lost_hops"]
            and any(
                "broker-4" in change["lost_hops"]
                for change in soak["path_changes"]
            ),
            "alerts_in_both_outages": "media-gap/sub-3" in crash_alerts
            and "media-gap/sub-2" in partition_alerts
            and "media-gap/sub-3" in partition_alerts,
            "alerts_only_in_fault_windows":
                len(crash_alerts) + len(partition_alerts) == len(alerts),
        },
    }
