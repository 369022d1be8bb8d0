"""Program counters, read from public attributes of the system.

Reading them costs the program nothing and they are exact, so every
repeat of a seed must agree.  ``snapshot`` is taken at the start and the
end of the measured phase; ``measured`` reports the difference.
"""

from __future__ import annotations

from typing import Dict, List

from perf.workloads import Workload

#: ``Broker.statistics()`` key -> counter name.
_BROKER_COUNTERS = {
    "events_routed": "broker.core.events_routed",
    "events_delivered": "broker.core.events_delivered",
    "events_forwarded": "broker.core.events_forwarded",
    "events_shed": "broker.core.events_shed",
    "control_messages": "broker.core.control_messages",
    "route_cache_hits": "_cache_hits",
    "route_cache_misses": "_cache_misses",
    "route_cache_invalidations": "broker.routing.cache_invalidations",
    "outbox_overflows": "broker.links.outbox_overflows",
    "lsas_originated": "broker.fabric.lsas_originated",
    "adverts_aggregated": "broker.fabric.adverts_aggregated",
    "intercluster_hops": "broker.fabric.intercluster_hops",
    "traces_completed": "obs.traces_completed",
}


def snapshot(workload: Workload) -> Dict[str, float]:
    """Cumulative counters of the workload's world, right now."""
    sim = workload.sim
    hosts = workload.net.hosts()
    counters: Dict[str, float] = {
        "simnet.kernel.events": sim.events_processed,
        "simnet.kernel.timers_cancelled": sim.timers_cancelled,
        "simnet.kernel.heap_compactions": sim.heap_compactions,
        "simnet.cpu.tasks": sum(h.cpu.tasks_executed for h in hosts),
        "simnet.cpu.busy_s": sum(h.cpu.busy_time for h in hosts),
        "simnet.cpu.gc_pause_s": sum(h.cpu.gc_pause_time for h in hosts),
        "simnet.wire.packets": sum(h.nic.sent_packets for h in hosts),
        "simnet.wire.bytes": sum(h.nic.sent_bytes for h in hosts),
        # Network loss plus NIC tail-drop.
        "simnet.wire.lost": workload.net.lost_packets
        + sum(h.nic.dropped_packets for h in hosts),
        "broker.client.events_received": sum(
            c.events_received for c in workload.clients
        ),
        "broker.client.busy_rejections": sum(
            c.busy_rejections for c in workload.clients
        ),
    }
    statistics = [broker.statistics() for broker in workload.brokers]
    for key, name in _BROKER_COUNTERS.items():
        counters[name] = sum(stats[key] for stats in statistics)
    return counters


def quantile_ms(samples_s: List[float], q: float) -> float:
    """Nearest-rank quantile of samples in seconds, in milliseconds."""
    if not samples_s:
        return 0.0
    ordered = sorted(samples_s)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1000.0


def measured(
    workload: Workload, before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """The counter block of one run: measured-phase deltas, plus what
    the load generator itself observed."""
    counters = {name: after[name] - before[name] for name in after}
    hits = counters.pop("_cache_hits")
    lookups = hits + counters.pop("_cache_misses")
    counters["broker.routing.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    counters["rtp.packets_lost"] = sum(s.lost for s in workload.receiver_stats())
    counters["signaling.joins_attempted"] = workload.joins_attempted
    counters["signaling.joins_completed"] = len(workload.join_latencies_s)
    counters["signaling.join_p50_ms"] = quantile_ms(workload.join_latencies_s, 0.50)
    counters["signaling.join_p99_ms"] = quantile_ms(workload.join_latencies_s, 0.99)
    counters["obs.alerts_raised"] = workload.alerts_raised
    return counters
