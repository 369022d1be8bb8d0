"""Names, units, directions and bounds of everything the benchmark
reports.  ``BENCHMARK.json`` repeats these declarations for the driver;
``perf/test_selfcheck.py`` keeps the two in step.

Two clocks, always labelled.  *Host time* is what the simulator costs to
run (``time.process_time`` of a single-threaded child process); its
units are ``s``.  *Modeled time* is virtual time inside the simulation;
for a fixed seed it repeats bit-for-bit, and its units are ``sim_s`` and
``sim_ms`` so that no table can mix the two.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from perf.layers import LAYERS


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline median by which the metric may worsen
    #: before it is a regression (end-to-end metrics only).
    bound: float = 0.0
    #: "host" | "modeled" | "count"
    clock: str = "host"


WORKLOADS: Dict[str, str] = {
    "fig3_video": (
        "the paper's Figure 3: one broker, 400-way local fan-out of one video "
        "stream; simnet and client dispatch do the work, routing and obs none"
    ),
    "mesh_relay": (
        "64-broker mesh, fan-out 1 per broker, 172-byte and 1000-byte streams: "
        "peer forwarding and route-cache reads dominate, the fan-out path idles"
    ),
    "roaming_churn": (
        "24-broker clustered fabric, 480 subscribers re-homing every 2 s: trie "
        "writes, advert floods and route-cache invalidation beside a thin data path"
    ),
    "observed_fabric": (
        "roaming_churn at half the churn with tracer, telemetry plane and SLO "
        "watchdog on: the only workload where obs does work"
    ),
    "conference_signaling": (
        "40 XGSP sessions of SIP, H.323 and native members joining and leaving "
        "in cycles: the only workload that runs signaling, rtp and reliable topics"
    ),
}

END_TO_END: List[Metric] = [
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("deliveries_per_cpu_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("delay_p50_ms", "sim_ms", "lower", 0.05, "modeled"),
    Metric("delay_p99_ms", "sim_ms", "lower", 0.05, "modeled"),
    Metric("jitter_avg_ms", "sim_ms", "lower", 0.25, "modeled"),
    Metric("delivered_share", "ratio", "higher", 0.001, "count"),
]

#: Program counters read from public attributes around the measured
#: phase of the timed (unprofiled) runs.  Exact: all repeats must agree.
COUNTERS: List[Metric] = [
    Metric("simnet.kernel.events", "count", "lower", clock="count"),
    Metric("simnet.kernel.timers_cancelled", "count", "lower", clock="count"),
    Metric("simnet.kernel.heap_compactions", "count", "lower", clock="count"),
    Metric("simnet.cpu.tasks", "count", "lower", clock="count"),
    Metric("simnet.cpu.busy_s", "sim_s", "lower", clock="modeled"),
    Metric("simnet.cpu.gc_pause_s", "sim_s", "lower", clock="modeled"),
    Metric("simnet.wire.packets", "count", "lower", clock="count"),
    Metric("simnet.wire.bytes", "count", "lower", clock="count"),
    Metric("simnet.wire.lost", "count", "lower", clock="count"),
    Metric("broker.core.events_routed", "count", "lower", clock="count"),
    Metric("broker.core.events_delivered", "count", "higher", clock="count"),
    Metric("broker.core.events_forwarded", "count", "lower", clock="count"),
    Metric("broker.core.events_shed", "count", "lower", clock="count"),
    Metric("broker.core.control_messages", "count", "lower", clock="count"),
    Metric("broker.routing.cache_hit_ratio", "ratio", "higher", clock="count"),
    Metric("broker.routing.cache_invalidations", "count", "lower", clock="count"),
    Metric("broker.links.outbox_overflows", "count", "lower", clock="count"),
    Metric("broker.fabric.lsas_originated", "count", "lower", clock="count"),
    Metric("broker.fabric.adverts_aggregated", "count", "higher", clock="count"),
    Metric("broker.fabric.intercluster_hops", "count", "lower", clock="count"),
    Metric("broker.client.events_received", "count", "higher", clock="count"),
    Metric("broker.client.busy_rejections", "count", "lower", clock="count"),
    Metric("rtp.packets_lost", "count", "lower", clock="count"),
    Metric("signaling.joins_attempted", "count", "higher", clock="count"),
    Metric("signaling.joins_completed", "count", "higher", clock="count"),
    Metric("signaling.join_p50_ms", "sim_ms", "lower", clock="modeled"),
    Metric("signaling.join_p99_ms", "sim_ms", "lower", clock="modeled"),
    Metric("obs.traces_completed", "count", "higher", clock="count"),
    Metric("obs.alerts_raised", "count", "lower", clock="count"),
]

#: From the profile pass, per layer.
PROFILE: List[Metric] = [
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_share", "ratio", "lower"),
        Metric(f"{layer}.calls", "count", "lower", clock="count"),
    )
]

#: From the hop pass: where a packet's modeled delay goes.
MODELED: List[Metric] = [
    Metric("modeled.link_share", "ratio", "lower", clock="modeled"),
    Metric("modeled.queue_share", "ratio", "lower", clock="modeled"),
    Metric("modeled.service_share", "ratio", "lower", clock="modeled"),
    Metric("modeled.total_p50_ms", "sim_ms", "lower", clock="modeled"),
]

PER_LAYER: List[Metric] = PROFILE + COUNTERS + MODELED
