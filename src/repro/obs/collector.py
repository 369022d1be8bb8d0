"""Trace collection and hop-by-hop path analysis.

A :class:`TraceCollector` is an ordinary broker client subscribed to
``/narada/trace/#``: it receives every :class:`~repro.obs.trace.CompletedTrace`
published by the delivering brokers and answers the operational
questions the counters cannot:

* which hop-by-hop path did this topic's events take, and when did the
  path *change* (a reroute around a crashed broker shows up as a path
  change whose lost hop names the corpse);
* where did the end-to-end delay go — link propagation, CPU queueing
  (including GC stalls), or CPU service — per trace and aggregated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.broker.broker import Broker
from repro.broker.client import BrokerClient
from repro.broker.event import NBEvent
from repro.obs.trace import TRACE_TOPIC_PREFIX, CompletedTrace
from repro.simnet.node import Host


class TraceCollector:
    """Collects completed traces from the whole broker collection."""

    def __init__(
        self,
        host: Host,
        broker: Broker,
        client_id: str = "trace-collector",
    ):
        self.client = BrokerClient(host, client_id=client_id)
        self.client.connect(broker)
        self.client.subscribe(f"{TRACE_TOPIC_PREFIX}/#", self._on_trace)
        self.traces: List[CompletedTrace] = []

    def _on_trace(self, event: NBEvent) -> None:
        payload = event.payload
        if isinstance(payload, CompletedTrace):
            self.traces.append(payload)

    # ------------------------------------------------------------ queries

    def for_topic(
        self, topic: Optional[str] = None, delivered_by: Optional[str] = None
    ) -> List[CompletedTrace]:
        return [
            trace for trace in self.traces
            if (topic is None or trace.topic == topic)
            and (delivered_by is None or trace.delivered_by == delivered_by)
        ]

    def paths(
        self, topic: Optional[str] = None, delivered_by: Optional[str] = None
    ) -> List[Tuple[str, ...]]:
        return [t.path() for t in self.for_topic(topic, delivered_by)]

    def summarize(self, topic: Optional[str] = None) -> dict:
        """Aggregate delay attribution over the collected traces."""
        traces = self.for_topic(topic)
        if not traces:
            return {"count": 0}
        totals = sorted(trace.total_s for trace in traces)

        def quantile(q: float) -> float:
            index = min(len(totals) - 1, int(q * len(totals)))
            return totals[index]

        cpu = sum(t.attribution()["cpu_s"] for t in traces)
        queue = sum(t.attribution()["queue_s"] for t in traces)
        link = sum(t.attribution()["link_s"] for t in traces)
        grand = sum(totals)
        by_hop: Dict[str, Dict[str, float]] = {}
        for trace in traces:
            for hop in trace.hops:
                entry = by_hop.setdefault(
                    hop.node, {"visits": 0, "cpu_s": 0.0, "queue_s": 0.0}
                )
                entry["visits"] += 1
                entry["cpu_s"] += hop.cpu_s
                entry["queue_s"] += hop.queue_wait_s
        return {
            "count": len(traces),
            "total_p50_s": quantile(0.50),
            "total_p95_s": quantile(0.95),
            "total_p99_s": quantile(0.99),
            "total_mean_s": grand / len(traces),
            "cpu_share": cpu / grand if grand else 0.0,
            "queue_share": queue / grand if grand else 0.0,
            "link_share": link / grand if grand else 0.0,
            "by_hop": by_hop,
        }

    # ------------------------------------------------------ path forensics

    def path_changes(
        self, topic: Optional[str] = None, delivered_by: Optional[str] = None
    ) -> List[dict]:
        """Reroute events: each time consecutive traces (per delivering
        broker) took a different node path."""
        changes: List[dict] = []
        last_path: Dict[str, Tuple[str, ...]] = {}
        for trace in sorted(
            self.for_topic(topic, delivered_by), key=lambda t: t.delivered_at
        ):
            previous = last_path.get(trace.delivered_by)
            path = trace.path()
            if previous is not None and path != previous:
                changes.append({
                    "at": trace.delivered_at,
                    "delivered_by": trace.delivered_by,
                    "before": previous,
                    "after": path,
                    "lost_hops": tuple(sorted(set(previous) - set(path))),
                    "gained_hops": tuple(sorted(set(path) - set(previous))),
                })
            last_path[trace.delivered_by] = path
        return changes

    def attribute_gap(
        self,
        topic: str,
        gap_start: float,
        gap_end: float,
        delivered_by: Optional[str] = None,
    ) -> dict:
        """Explain a media gap: compare the last path delivered before the
        gap with the first path delivered after it.

        The hops present before but gone after are the prime suspects —
        for a crash-induced gap, that is exactly the failed broker.
        """
        traces = sorted(
            self.for_topic(topic, delivered_by), key=lambda t: t.delivered_at
        )
        before = [t for t in traces if t.delivered_at <= gap_start]
        after = [t for t in traces if t.delivered_at >= gap_end]
        if not before or not after:
            return {"explained": False, "lost_hops": ()}
        before_path = before[-1].path()
        after_path = after[0].path()
        return {
            "explained": True,
            "gap_start": gap_start,
            "gap_end": gap_end,
            "before_path": before_path,
            "after_path": after_path,
            "lost_hops": tuple(sorted(set(before_path) - set(after_path))),
            "gained_hops": tuple(sorted(set(after_path) - set(before_path))),
        }

    def disconnect(self) -> None:
        self.client.disconnect()
