"""Overload protection under a flash crowd: shed media, never control.

The failure mode this guards (ROADMAP item 5, DESIGN.md §9): a flash
crowd — a 10× connect/subscribe storm plus a publisher burst — lands on
the clustered fabric, and an unprotected broker queues without bound
until heartbeats and LSAs wait behind thousands of video frames and the
mesh starves.  With the :class:`~repro.broker.overload.OverloadController`
the brokers cross their watermarks into DEGRADED/SHEDDING, shed BULK
then VIDEO (never CONTROL, never AUDIO in-broker), refuse new admissions
with ``Busy(retry_after_s)``, and step back to NORMAL once the burst
drains.

Gates (the headline is ``BENCH_overload.json``):

* the controller *engaged* — the crowd actually crossed the watermarks
  (otherwise every other gate is vacuous);
* **zero** control-class events shed anywhere in the fabric;
* the audio probe's p99 inter-delivery gap stays within the 1.5 s
  budget through the burst;
* every broker returns to NORMAL within 2 s of burst end;
* below the watermarks the controller is bit-identically inert: an
  enabled run's delivery trace equals a disabled run's;
* a floor on shed events, so the engagement gate cannot pass on a
  trickle.

``quick`` runs the flash crowd on a smaller fabric.
"""

from repro.broker.client import BrokerClient
from repro.broker.network import BrokerNetwork
from repro.broker.overload import NORMAL, ShedWatermarks
from repro.simnet.chaos import ChaosSchedule
from repro.simnet.kernel import Simulator
from repro.simnet.link import LinkProfile
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

SEED = 7

FULL_CLUSTERS = [5] * 6
QUICK_CLUSTERS = [3] * 3

#: 10 Mbit/s broker access links: enough for the steady conference,
#: saturated by the burst — the NIC ledger is the signal that trips.
BROKER_LINK = LinkProfile(bandwidth_bps=10e6, latency_s=0.002)

#: NIC watermarks sized to the link: 256 KiB of backlog is ~0.2 s of
#: serialization — past that, stale video is queue poison.  CPU and
#: outbox marks keep their defaults.
WATERMARKS = ShedWatermarks(
    nic_degraded_bytes=128 << 10, nic_shedding_bytes=256 << 10
)

#: The steady conference: listeners at the hot broker, one A/V/bulk
#: publisher set across the fabric.
BASE_LISTENERS = 10
AUDIO_RATE_HZ, AUDIO_BYTES = 50, 200
VIDEO_RATE_HZ, VIDEO_BYTES = 25, 1200
BULK_RATE_HZ, BULK_BYTES = 10, 1500

#: The flash crowd: 10× the base population connecting inside the
#: window, plus a video publisher burst on top of the steady streams.
CROWD_MULTIPLIER = 10
FLASH_WINDOW_S = 2.0
BURST_S = 3.0
BURST_RATE_HZ, BURST_BYTES = 1000, 1400

TOPOLOGY_CONVERGE_S = 20.0
BASELINE_S = 5.0
OBSERVE_S = 10.0
POLL_S = 0.1

SLO_AUDIO_GAP_S = 1.5
SLO_RECOVER_S = 2.0

#: Floor on events shed fabric-wide, per size.
SHED_FLOOR = 1000
QUICK_SHED_FLOOR = 500


def quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_flash_crowd(cluster_sizes):
    """One seeded flash-crowd scenario; returns the measured numbers."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    fabric = BrokerNetwork.clustered(
        net, cluster_sizes, link=BROKER_LINK, overload=WATERMARKS
    )
    brokers = fabric.brokers()
    names = sorted(b.broker_id for b in brokers)
    hot = fabric.broker(names[0])
    far = fabric.broker(names[-1])

    audio_times = []
    listeners = []
    for index in range(BASE_LISTENERS):
        client = BrokerClient(
            net.create_host(f"base-{index}"), client_id=f"base-{index}"
        )
        client.connect(hot)
        if index == 0:
            client.subscribe(
                "/conf/main/audio",
                lambda event: audio_times.append(sim.now),
            )
        client.subscribe("/conf/main/#", lambda event: None)
        listeners.append(client)

    audio_pub = BrokerClient(net.create_host("audio-pub"), client_id="audio-pub")
    audio_pub.connect(far)
    video_pub = BrokerClient(net.create_host("video-pub"), client_id="video-pub")
    video_pub.connect(far)
    bulk_pub = BrokerClient(net.create_host("bulk-pub"), client_id="bulk-pub")
    bulk_pub.connect(far)

    def steady(client, topic, rate_hz, size):
        def tick():
            client.publish(topic, sim.now, size)
            sim.schedule(1.0 / rate_hz, tick)
        return tick

    sim.schedule_at(
        TOPOLOGY_CONVERGE_S,
        steady(audio_pub, "/conf/main/audio", AUDIO_RATE_HZ, AUDIO_BYTES),
    )
    sim.schedule_at(
        TOPOLOGY_CONVERGE_S,
        steady(video_pub, "/conf/main/video", VIDEO_RATE_HZ, VIDEO_BYTES),
    )
    sim.schedule_at(
        TOPOLOGY_CONVERGE_S,
        steady(bulk_pub, "/narada/trace/bench", BULK_RATE_HZ, BULK_BYTES),
    )
    sim.run(until=TOPOLOGY_CONVERGE_S + BASELINE_S)

    # ---- the flash crowd -------------------------------------------------
    chaos = ChaosSchedule(fabric, seed=SEED)
    burst_start = sim.now
    burst_end = burst_start + BURST_S
    crowd = []

    def spawn(index):
        client = BrokerClient(
            net.create_host(f"crowd-{index}"), client_id=f"crowd-{index}"
        )
        client.connect(hot)
        # Joiners land on the (quiet) chat topic: the storm is the join
        # itself plus the publisher burst, not a permanent 10× fan-out.
        client.subscribe("/conf/main/chat", lambda event: None)
        crowd.append(client)

    chaos.flash_crowd(
        burst_start, BASE_LISTENERS * CROWD_MULTIPLIER, FLASH_WINDOW_S, spawn
    )
    chaos.publisher_burst(
        burst_start, BURST_S, BURST_RATE_HZ,
        lambda index: video_pub.publish("/conf/main/video", sim.now, BURST_BYTES),
    )

    # Poll every broker's overload state on a fixed cadence: the gauge
    # read drives the controller's lazy de-escalation, and the poll log
    # is what the recovery gate is computed from.
    state_log = []

    def poll():
        worst = max(
            (b.overload.refresh(sim.now) if b.overload else NORMAL)
            for b in brokers
        )
        state_log.append((sim.now, worst))
        if sim.now < burst_end + OBSERVE_S - POLL_S:
            sim.schedule(POLL_S, poll)

    sim.schedule_at(burst_start + POLL_S, poll)
    sim.run(until=burst_end + OBSERVE_S)

    # ---- measurements ----------------------------------------------------
    window = [
        t for t in audio_times
        if burst_start - 1.0 <= t <= burst_end + SLO_RECOVER_S + 1.0
    ]
    gaps = [b - a for a, b in zip(window, window[1:])]
    audio_gap_p99 = quantile(gaps, 0.99)

    time_to_normal = None
    for at, worst in state_log:
        if at >= burst_end and worst == NORMAL:
            time_to_normal = round(at - burst_end, 3)
            break
    peak_state = max(worst for _at, worst in state_log)

    stats = [b.statistics() for b in brokers]
    result = {
        "brokers": len(brokers),
        "crowd_clients": len(crowd),
        "crowd_connected": sum(1 for c in crowd if c.connected),
        "crowd_busy_rejections": sum(c.busy_rejections for c in crowd),
        "admissions_refused": sum(s["admissions_refused"] for s in stats),
        "overload_entries": sum(s["overload_entries"] for s in stats),
        "events_shed": sum(s["events_shed"] for s in stats),
        "events_shed_control": sum(s["events_shed_control"] for s in stats),
        "events_shed_audio": sum(s["events_shed_audio"] for s in stats),
        "events_shed_video": sum(s["events_shed_video"] for s in stats),
        "events_shed_bulk": sum(s["events_shed_bulk"] for s in stats),
        "outbox_overflows": sum(s["outbox_overflows"] for s in stats),
        "peak_state": peak_state,
        "audio_gap_p99_s": round(audio_gap_p99, 4),
        "audio_deliveries": len(audio_times),
        "time_to_normal_s": time_to_normal,
    }
    fabric.close()
    return result


def determinism_check():
    """Below the watermarks the controller must be bit-identically inert."""
    def trace_run(overload):
        sim = Simulator()
        net = Network(sim, SeededStreams(SEED))
        fabric = BrokerNetwork.clustered(
            net, [3, 3], link=BROKER_LINK, overload=overload
        )
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
        for index in range(150):
            topic = ("/conf/audio", "/conf/video")[index % 2]
            sim.schedule_at(
                TOPOLOGY_CONVERGE_S + index * 0.01,
                publisher.publish, topic, index, 400,
            )
        sim.run(until=TOPOLOGY_CONVERGE_S + 5.0)
        fabric.close()
        base = min((entry[0] for entry in trace), default=0)
        return [(eid - base, topic, at) for eid, topic, at in trace]

    enabled = trace_run(ShedWatermarks())
    return bool(enabled) and enabled == trace_run(None)


def scenario(quick):
    cluster_sizes = QUICK_CLUSTERS if quick else FULL_CLUSTERS
    shed_floor = QUICK_SHED_FLOOR if quick else SHED_FLOOR
    result = run_flash_crowd(cluster_sizes)
    return {
        "params": {
            "clusters": len(cluster_sizes),
            "crowd_multiplier": CROWD_MULTIPLIER,
            "slo": {
                "audio_gap_p99_s": SLO_AUDIO_GAP_S,
                "recover_s": SLO_RECOVER_S,
            },
            "shed_floor": shed_floor,
        },
        "results": result,
        "gates": {
            "controller_engaged": result["overload_entries"] > 0
            and result["events_shed"] > 0,
            "shed_floor": result["events_shed"] >= shed_floor,
            "zero_control_shed": result["events_shed_control"] == 0,
            "audio_gap_p99_within_budget":
                result["audio_gap_p99_s"] <= SLO_AUDIO_GAP_S,
            "recovered_within_budget": result["time_to_normal_s"] is not None
            and result["time_to_normal_s"] <= SLO_RECOVER_S,
            "inert_below_watermarks": determinism_check(),
        },
    }
