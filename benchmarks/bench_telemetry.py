"""Hierarchical telemetry plane: overhead, fidelity, detection lead time.

The claim under test (ROADMAP observability item, DESIGN.md §11): the
cluster-aggregated telemetry plane watches a large broker fabric at a
modeled-CPU cost that rounds to zero, shrinks console ingress from
O(brokers) to O(clusters), and still recovers *true* fleet-wide latency
percentiles from merged histogram sketches — while its anomaly
detectors see a flash-crowd ramp coming before the overload controller
trips.

The workload is representative, not idle: every cluster carries its own
conference (audio + video publishers on one member, listeners spread
across the rest), and cluster c0's video publisher additionally runs a
flash-crowd ramp.  Telemetry attaches when the topology has converged,
so the overhead window is exactly the operational window.

Four measured legs on the same seeded conference workload:

* **baseline** — no telemetry at all; the modeled-CPU yardstick;
* **hierarchical** — delta monitors → gateway aggregators → fleet
  console, plus an anomaly watchdog on the hot broker;
* **flat** — classic full samples straight to one wildcard console
  (what PR 4 shipped), the ingress yardstick;
* **determinism** — two telemetry-enabled runs must produce the same
  data-plane trace and the same console state, bit for bit.

Gates (the headline is ``BENCH_telemetry.json``):

* monitoring overhead ≤ 1% of baseline modeled broker CPU;
* console ingress reduced ≥ 5× vs flat mode (≥ 2× on the CI slice —
  the quick fabric only has 6 clusters of 4);
* fleet p99 from the plane within one bucket width of a direct merge
  of every broker's histogram;
* the first anomaly alert fires at least 1 s (0.5 s on the quick
  fabric) *before* the first overload state flip (detection lead time
  on the ramp);
* telemetry-enabled runs are deterministic.

``quick`` runs the same legs on a smaller fabric.
"""

from repro.broker.client import BrokerClient
from repro.broker.monitor import BrokerMonitor, MonitoringClient
from repro.broker.network import BrokerNetwork
from repro.broker.overload import NORMAL, ShedWatermarks
from repro.obs.anomaly import EwmaBandDetector, SlopeDetector
from repro.obs.report import build_report
from repro.obs.series import HistogramSketch, merge_sketches
from repro.obs.slo import AlertLog, SloWatchdog
from repro.simnet.kernel import Simulator
from repro.simnet.link import LinkProfile
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

SEED = 7

FULL_CLUSTERS = [7] * 16  # 112 brokers
QUICK_CLUSTERS = [4] * 6  # 24 brokers

#: 10 Mbit/s broker access links (as in the overload bench): the ramp
#: saturates the hot broker's NIC, which is the watermark that trips.
BROKER_LINK = LinkProfile(bandwidth_bps=10e6, latency_s=0.002)
WATERMARKS = ShedWatermarks(
    nic_degraded_bytes=128 << 10, nic_shedding_bytes=256 << 10
)

#: Steady per-cluster conference: publishers stage on the last member,
#: listeners spread over every other member so the whole fabric routes,
#: forwards and delivers (monitoring overhead is measured against a
#: *working* fleet, not an idle one).
LISTENERS_PER_MEMBER = 8
AUDIO_RATE_HZ, AUDIO_BYTES = 100, 200
VIDEO_RATE_HZ, VIDEO_BYTES = 25, 1200

#: The flash crowd: cluster c0's video publisher escalates *its own*
#: steady stream linearly from VIDEO_RATE_HZ to RAMP_END_HZ — a smooth
#: build-up with no onset step, so the egress-throughput slope is
#: visible seconds before the NIC watermark trips.
RAMP_S = 20.0
RAMP_END_HZ = 1000

TOPOLOGY_CONVERGE_S = 20.0
BASELINE_S = 5.0
TAIL_S = 5.0  # quiet tail: lets the last snapshots propagate
POLL_S = 0.1

SAMPLE_INTERVAL_S = 3.0
CPU_OVERHEAD_BUDGET = 0.01
INGRESS_FACTOR_FULL = 5.0
INGRESS_FACTOR_QUICK = 2.0
#: Minimum anomaly-alert lead over the first overload flip.
MIN_LEAD_S = 1.0
QUICK_MIN_LEAD_S = 0.5


def run_scenario(cluster_sizes, mode):
    """One seeded conference + ramp; ``mode`` picks the telemetry.

    Returns the measured numbers for that leg: summed broker CPU,
    console ingress, plane fidelity and (hierarchical only) the anomaly
    alert / overload flip timeline.
    """
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    fabric = BrokerNetwork.clustered(
        net, cluster_sizes, link=BROKER_LINK, shed_watermarks=WATERMARKS
    )
    brokers = fabric.brokers()
    clusters = {cid: fabric.clusters[cid] for cid in sorted(fabric.clusters)}
    ramp_cluster = next(iter(clusters))
    # The "hot" broker is the ramp conference's stage: it fans the
    # escalating video stream out to every other member of its cluster,
    # so its NIC backlog is the first to climb.
    hot = fabric.broker(clusters[ramp_cluster][-1])

    plane = None
    flat_monitors = []
    flat_console = None
    watchdog = None
    alert_log = None
    if mode == "hier":
        plane = fabric.attach_telemetry(sample_interval_s=SAMPLE_INTERVAL_S)
        # Subscriptions flood during convergence; sampling begins when
        # the fabric goes operational, so the overhead window matches
        # the measurement window exactly.
        sim.schedule_at(TOPOLOGY_CONVERGE_S, plane.start)
        # Early-warning probes on the ramp cluster's listener members
        # (the brokers whose NICs the flash crowd saturates first).  The
        # egress-throughput slope is the *leading* indicator: it climbs
        # toward link capacity while the queue is still empty.  The
        # backlog slope confirms once queueing starts; both fire before
        # the absolute NIC watermark trips the overload controller.
        watchdog = SloWatchdog(
            net.create_host("watchdog-host"), hot, check_interval_s=0.25
        )
        alert_log = AlertLog(net.create_host("alert-log-host"), hot)
        for name in clusters[ramp_cluster][:-1]:
            member = fabric.broker(name)
            watchdog.watch_anomaly(
                f"nic-egress-ramp:{name}",
                (lambda nic: lambda: nic.sent_bytes)(member.host.nic),
                SlopeDetector(
                    slope_per_s=600_000.0, window_s=2.0, min_rise=600_000.0
                ),
            )
            watchdog.watch_anomaly(
                f"nic-backlog-ramp:{name}",
                (lambda nic: lambda: nic.queued_bytes)(member.host.nic),
                SlopeDetector(
                    slope_per_s=20_000.0, window_s=2.0, min_rise=20_000.0
                ),
            )
        watchdog.watch_anomaly(
            "outbox-level-shift",
            lambda: hot._outbox_depth(),
            EwmaBandDetector(band_k=6.0, min_consecutive=2),
        )
    elif mode == "flat":
        # PR-4 style: every broker full-samples to one wildcard console.
        flat_monitors = [
            BrokerMonitor(broker, interval_s=SAMPLE_INTERVAL_S)
            for broker in brokers
        ]
        flat_console = MonitoringClient(
            net.create_host("flat-console"), hot, client_id="flat-console"
        )

        def start_flat_monitors():
            for monitor in flat_monitors:
                monitor.start()

        sim.schedule_at(TOPOLOGY_CONVERGE_S, start_flat_monitors)

    ramp_start = TOPOLOGY_CONVERGE_S + BASELINE_S
    ramp_end = ramp_start + RAMP_S
    traffic_end = ramp_end + 2.0
    run_end = ramp_end + TAIL_S

    # One conference per cluster: stage the publishers on the last
    # member, spread listeners over every other member.
    listeners = []
    publishers = []
    ramp_pub = None
    for cluster_id, members in clusters.items():
        conference = f"/conf/{cluster_id}"
        for name in members[:-1]:
            broker = fabric.broker(name)
            for index in range(LISTENERS_PER_MEMBER):
                client = BrokerClient(
                    net.create_host(f"aud-{name}-{index}"),
                    client_id=f"aud-{name}-{index}",
                )
                client.connect(broker)
                client.subscribe(conference + "/#", lambda event: None)
                listeners.append(client)
        stage = fabric.broker(members[-1])
        audio_pub = BrokerClient(
            net.create_host(f"mic-{cluster_id}"),
            client_id=f"mic-{cluster_id}",
        )
        audio_pub.connect(stage)
        video_pub = BrokerClient(
            net.create_host(f"cam-{cluster_id}"),
            client_id=f"cam-{cluster_id}",
        )
        video_pub.connect(stage)
        publishers.append(
            (audio_pub, conference + "/audio", AUDIO_RATE_HZ, AUDIO_BYTES,
             traffic_end)
        )
        # The ramp cluster's video stream hands over to the flash-crowd
        # ramp at ramp_start; everyone else streams steadily throughout.
        video_end = ramp_start if cluster_id == ramp_cluster else traffic_end
        publishers.append(
            (video_pub, conference + "/video", VIDEO_RATE_HZ, VIDEO_BYTES,
             video_end)
        )
        if cluster_id == ramp_cluster:
            ramp_pub = video_pub

    def steady(client, topic, rate_hz, size, end):
        def tick():
            if sim.now >= end:
                return
            client.publish(topic, sim.now, size)
            sim.schedule(1.0 / rate_hz, tick)
        return tick

    for client, topic, rate_hz, size, end in publishers:
        sim.schedule_at(
            TOPOLOGY_CONVERGE_S, steady(client, topic, rate_hz, size, end)
        )

    ramp_topic = f"/conf/{ramp_cluster}/video"

    def ramp_tick():
        if sim.now >= ramp_end:
            return
        ramp_pub.publish(ramp_topic, sim.now, VIDEO_BYTES)
        frac = (sim.now - ramp_start) / RAMP_S
        rate = VIDEO_RATE_HZ + (RAMP_END_HZ - VIDEO_RATE_HZ) * frac
        sim.schedule(1.0 / rate, ramp_tick)

    sim.schedule_at(ramp_start, ramp_tick)

    # Broker CPU is measured over the operational window only: the
    # snapshot at converge excludes topology bring-up and the plane's
    # one-time subscription-propagation cascade (health/monitor
    # interest flooding the overlay) — a setup cost, not monitoring
    # overhead.  Steady-state sampling/aggregation lands after it.
    cpu_at_converge = {}

    def snapshot_cpu():
        for broker in brokers:
            cpu_at_converge[broker.broker_id] = broker.host.cpu.busy_time

    sim.schedule_at(TOPOLOGY_CONVERGE_S, snapshot_cpu)

    # Poll the fabric's worst overload state: the poll drives the
    # controllers' lazy refresh and logs the flip the lead-time gate
    # measures against.
    state_log = []

    def poll():
        worst = max(
            (b.overload.refresh(sim.now) if b.overload else NORMAL)
            for b in brokers
        )
        state_log.append((sim.now, worst))
        if sim.now < run_end - POLL_S:
            sim.schedule(POLL_S, poll)

    sim.schedule_at(ramp_start - 1.0, poll)
    sim.run(until=run_end)

    first_flip_at = next(
        (at for at, worst in state_log if worst > NORMAL), None
    )
    result = {
        "mode": mode,
        "brokers": len(brokers),
        "clusters": len(cluster_sizes),
        "broker_cpu_s": round(
            sum(
                b.host.cpu.busy_time - cpu_at_converge[b.broker_id]
                for b in brokers
            ),
            6,
        ),
        "events_delivered": sum(
            b.statistics()["events_delivered"] for b in brokers
        ),
        "peak_state": max(worst for _at, worst in state_log),
        "first_overload_flip_at": first_flip_at,
        "ramp_start": ramp_start,
        "measurement_window_s": run_end - TOPOLOGY_CONVERGE_S,
    }

    if mode == "hier":
        fleet = plane.fleet
        direct = merge_sketches(
            HistogramSketch.from_histogram(b.delivery_latency)
            for b in brokers
        )
        plane_sketch = fleet.fleet_sketch()
        first_alert_at = min(
            (alert.at for alert in alert_log.alerts), default=None
        )
        result.update(
            console_ingress=plane.console_ingress(),
            samples_published=plane.samples_published(),
            sample_bytes_published=plane.sample_bytes_published(),
            clusters_seen=len(fleet.clusters_seen()),
            broker_rows=len(fleet.broker_rows()),
            stale_brokers=fleet.stale_broker_count,
            plane_p99_s=round(plane_sketch.quantile(0.99), 6),
            direct_p99_s=round(direct.quantile(0.99), 6),
            p99_bucket_width_s=round(direct.bucket_width_at(0.99), 6),
            plane_sample_count=plane_sketch.count,
            direct_sample_count=direct.count,
            first_alert_at=first_alert_at,
            alerts=[
                (alert.name, round(alert.at, 3))
                for alert in alert_log.alerts
            ],
            anomaly_lead_s=(
                round(first_flip_at - first_alert_at, 3)
                if first_flip_at is not None and first_alert_at is not None
                else None
            ),
            report=build_report(fleet, watermarks=WATERMARKS),
        )
        plane.stop()
    elif mode == "flat":
        result.update(
            console_ingress=flat_console.samples_received,
            brokers_seen=len(flat_console.brokers_seen()),
        )
        for monitor in flat_monitors:
            monitor.stop()
    fabric.close()
    return result


def determinism_check():
    """Two telemetry-enabled runs: same data trace, same console state."""

    def traced_run():
        sim = Simulator()
        net = Network(sim, SeededStreams(SEED))
        fabric = BrokerNetwork.clustered(net, [3, 3], link=BROKER_LINK)
        plane = fabric.attach_telemetry(sample_interval_s=0.5)
        plane.start()
        names = sorted(b.broker_id for b in fabric.brokers())
        trace = []
        subscriber = BrokerClient(net.create_host("sub"), client_id="sub")
        subscriber.connect(fabric.broker(names[0]))
        subscriber.subscribe(
            "/conf/#",
            lambda event: trace.append((event.event_id, event.topic, sim.now)),
        )
        publisher = BrokerClient(net.create_host("pub"), client_id="pub")
        publisher.connect(fabric.broker(names[-1]))
        sim.run(until=TOPOLOGY_CONVERGE_S)
        for index in range(100):
            sim.schedule_at(
                TOPOLOGY_CONVERGE_S + index * 0.01,
                publisher.publish, "/conf/video", index, 400,
            )
        sim.run(until=TOPOLOGY_CONVERGE_S + 5.0)
        fleet = plane.fleet
        signature = (
            fleet.summaries_received,
            fleet.fleet_quantile(0.99),
            sorted(fleet.fleet_counters().items()),
            plane.samples_published(),
        )
        plane.stop()
        fabric.close()
        base = min((entry[0] for entry in trace), default=0)
        return (
            [(eid - base, topic, at) for eid, topic, at in trace],
            signature,
        )

    first = traced_run()
    return bool(first[0]) and first == traced_run()


def scenario(quick):
    cluster_sizes = QUICK_CLUSTERS if quick else FULL_CLUSTERS
    min_ingress = INGRESS_FACTOR_QUICK if quick else INGRESS_FACTOR_FULL
    min_lead_s = QUICK_MIN_LEAD_S if quick else MIN_LEAD_S
    baseline = run_scenario(cluster_sizes, "baseline")
    hier = run_scenario(cluster_sizes, "hier")
    flat = run_scenario(cluster_sizes, "flat")
    overhead_cpu_s = hier["broker_cpu_s"] - baseline["broker_cpu_s"]
    overhead = overhead_cpu_s / baseline["broker_cpu_s"]
    # Same cost expressed against fabric CPU *capacity* (broker-seconds
    # over the operational window) — the "agent uses x% of a core" view.
    capacity_s = hier["brokers"] * hier["measurement_window_s"]
    overhead_capacity = overhead_cpu_s / capacity_s
    ingress_factor = (
        flat["console_ingress"] / hier["console_ingress"]
        if hier["console_ingress"]
        else 0.0
    )
    p99_error = abs(hier["plane_p99_s"] - hier["direct_p99_s"])
    lead_s = hier["anomaly_lead_s"]
    return {
        "params": {
            "clusters": len(cluster_sizes),
            "brokers": sum(cluster_sizes),
            "sample_interval_s": SAMPLE_INTERVAL_S,
            "budgets": {
                "cpu_overhead_frac": CPU_OVERHEAD_BUDGET,
                "ingress_factor_min": min_ingress,
                "anomaly_lead_min_s": min_lead_s,
            },
        },
        "results": {
            "cpu_overhead_frac": round(overhead, 5),
            "cpu_overhead_capacity_frac": round(overhead_capacity, 6),
            "monitoring_cpu_s": round(overhead_cpu_s, 6),
            "ingress_factor": round(ingress_factor, 2),
            "p99_error_s": round(p99_error, 6),
            "anomaly_lead_s": lead_s,
            "baseline": {"broker_cpu_s": baseline["broker_cpu_s"]},
            "flat": {
                "console_ingress": flat["console_ingress"],
                "brokers_seen": flat["brokers_seen"],
            },
            "hier": {
                key: value for key, value in hier.items() if key != "report"
            },
            "fleet_report": hier["report"],
        },
        "gates": {
            "overhead_within_budget": overhead <= CPU_OVERHEAD_BUDGET,
            "ingress_reduced": ingress_factor >= min_ingress,
            "fleet_p99_within_one_bucket":
                p99_error <= hier["p99_bucket_width_s"],
            "anomaly_leads_overload":
                lead_s is not None and lead_s >= min_lead_s,
            "deterministic_with_telemetry": determinism_check(),
        },
    }
