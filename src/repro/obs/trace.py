"""End-to-end event tracing: sampled per-hop records carried on events.

The paper's operators run a *distributed* broker collection; "how many
events" counters cannot answer "why was this participant's video late".
A :class:`Tracer` samples a deterministic 1-in-N of published events and
attaches a :class:`TraceContext` to the :class:`~repro.broker.event.NBEvent`.
Every broker the event visits appends a :class:`HopRecord` (arrival and
departure virtual time, CPU queue wait, CPU service time, the link
chosen).  When a broker delivers the event to local subscribers it
publishes a :class:`CompletedTrace` on ``/narada/trace/<broker-id>`` —
one per delivering broker, not per receiver, so trace traffic scales
with the broker path, not the fan-out.

Fan-out forks: when a traced event is forwarded to several next hops,
the trace context is *forked* per branch (the shared hop history is
reused, only the in-progress hop is copied), so every completed trace is
one linear broker path and the collector needs no tree reconstruction.

All ``/narada/...`` management topics (traces, monitor samples, alerts)
are never themselves sampled — tracing the tracer would recurse.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

#: Management topic prefixes.
NARADA_PREFIX = "/narada"
TRACE_TOPIC_PREFIX = "/narada/trace"
ALERT_TOPIC_PREFIX = "/narada/alerts"

#: Wire-size model of a completed-trace event.
TRACE_BASE_BYTES = 64
TRACE_HOP_BYTES = 40

_trace_ids = itertools.count(1)


def internal_topic(topic: str) -> bool:
    """True for management-plane topics that must never be traced."""
    return topic == NARADA_PREFIX or topic.startswith(NARADA_PREFIX + "/")


class HopRecord:
    """One node's handling of a traced event.

    Attributes:
        node: broker/proxy/gateway id.
        kind: the node's role (brokers record ``"broker"``).
        arrived_at: virtual time the event reached this node.
        departed_at: virtual time it left toward ``link`` (None while the
            hop is still in progress).
        queue_wait_s: CPU queueing delay attributed to this hop (includes
            stop-the-world GC pauses the event sat behind).
        cpu_s: CPU service time charged to this hop.
        link: next hop chosen — a peer broker id, ``"local"`` for final
            delivery, or ``"seq:<broker>"`` for an ordered-topic detour.
    """

    __slots__ = (
        "node", "kind", "arrived_at", "departed_at",
        "queue_wait_s", "cpu_s", "link",
    )

    def __init__(self, node: str, kind: str, arrived_at: float):
        self.node = node
        self.kind = kind
        self.arrived_at = arrived_at
        self.departed_at: Optional[float] = None
        self.queue_wait_s = 0.0
        self.cpu_s = 0.0
        self.link: Optional[str] = None

    def copy(self) -> "HopRecord":
        clone = HopRecord(self.node, self.kind, self.arrived_at)
        clone.departed_at = self.departed_at
        clone.queue_wait_s = self.queue_wait_s
        clone.cpu_s = self.cpu_s
        clone.link = self.link
        return clone

    def as_dict(self) -> dict:
        return {
            "node": self.node,
            "kind": self.kind,
            "arrived_at": self.arrived_at,
            "departed_at": self.departed_at,
            "queue_wait_s": self.queue_wait_s,
            "cpu_s": self.cpu_s,
            "link": self.link,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Hop {self.kind}:{self.node} ->{self.link}>"


class TraceContext:
    """The trace attached to one sampled event: id + append-only hops.

    Hops are held as an immutable tuple of *finalized* records
    (``_frozen``, structure-shared by every fork) plus at most one
    *in-progress* record (``_open``).  :meth:`fork` is therefore O(1)
    regardless of path length — it reuses the frozen prefix and copies
    only the open hop — where it used to copy the whole list per fan-out
    branch.  The public :attr:`hops` view materializes a list on demand;
    nothing on the hot path reads it.
    """

    __slots__ = ("trace_id", "topic", "source", "published_at", "_frozen", "_open")

    def __init__(self, topic: str, source: str, published_at: float):
        self.trace_id = next(_trace_ids)
        self.topic = topic
        self.source = source
        self.published_at = published_at
        self._frozen: Tuple[HopRecord, ...] = ()
        self._open: Optional[HopRecord] = None

    @property
    def hops(self) -> List[HopRecord]:
        """All hop records in path order (materialized view)."""
        open_hop = self._open
        if open_hop is None:
            return list(self._frozen)
        return [*self._frozen, open_hop]

    @property
    def open_hop(self) -> Optional[HopRecord]:
        """The in-progress (not yet departed) hop, if any."""
        return self._open

    def hop_count(self) -> int:
        return len(self._frozen) + (1 if self._open is not None else 0)

    def begin_hop(self, node: str, kind: str, now: float) -> HopRecord:
        open_hop = self._open
        if open_hop is not None:
            self._frozen = self._frozen + (open_hop,)
        hop = HopRecord(node, kind, now)
        self._open = hop
        return hop

    def fork(self) -> "TraceContext":
        """Branch the trace for one fan-out edge.

        Finalized hops are shared (they are never mutated again); only
        the in-progress hop is copied so each branch stamps its own
        departure and link.
        """
        clone = TraceContext.__new__(TraceContext)
        clone.trace_id = self.trace_id
        clone.topic = self.topic
        clone.source = self.source
        clone.published_at = self.published_at
        clone._frozen = self._frozen
        open_hop = self._open
        clone._open = open_hop.copy() if open_hop is not None else None
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace #{self.trace_id} {self.topic} hops={self.hop_count()}>"


class CompletedTrace:
    """One finished broker path, published on ``/narada/trace/<broker>``.

    Constructed either from an explicit ``hops`` tuple, or — on the
    delivery path — from a forked :class:`TraceContext`, in which case
    the hop tuple is *not* materialized until someone (the collector, a
    report) actually reads :attr:`hops`; size accounting runs off the hop
    count alone.
    """

    __slots__ = (
        "trace_id",
        "topic",
        "source",
        "published_at",
        "delivered_at",
        "delivered_by",
        "delivered_to",
        "_frozen",
        "_open",
        "_hops",
    )

    def __init__(
        self,
        trace_id: int,
        topic: str,
        source: str,
        published_at: float,
        delivered_at: float,
        delivered_by: str,
        delivered_to: Tuple[str, ...] = (),
        hops: Optional[Tuple[HopRecord, ...]] = None,
        context: Optional[TraceContext] = None,
    ):
        self.trace_id = trace_id
        self.topic = topic
        self.source = source
        self.published_at = published_at
        self.delivered_at = delivered_at
        self.delivered_by = delivered_by
        self.delivered_to = delivered_to
        if context is not None:
            self._frozen = context._frozen
            self._open = context._open
            self._hops: Optional[Tuple[HopRecord, ...]] = None
        else:
            self._frozen = ()
            self._open = None
            self._hops = tuple(hops) if hops is not None else ()

    @property
    def hops(self) -> Tuple[HopRecord, ...]:
        hops = self._hops
        if hops is None:
            open_hop = self._open
            hops = self._frozen if open_hop is None else self._frozen + (open_hop,)
            self._hops = hops
        return hops

    def hop_count(self) -> int:
        if self._hops is not None:
            return len(self._hops)
        return len(self._frozen) + (1 if self._open is not None else 0)

    @property
    def total_s(self) -> float:
        return self.delivered_at - self.published_at

    def path(self) -> Tuple[str, ...]:
        """The node ids the event traversed, in order."""
        return tuple(hop.node for hop in self.hops)

    def attribution(self) -> dict:
        """Split end-to-end delay into link vs CPU queue vs CPU service.

        Whatever the hop records cannot account for (propagation,
        transmission, NIC queues) is attributed to the links.
        """
        cpu_s = sum(hop.cpu_s for hop in self.hops)
        queue_s = sum(hop.queue_wait_s for hop in self.hops)
        return {
            "total_s": self.total_s,
            "cpu_s": cpu_s,
            "queue_s": queue_s,
            "link_s": max(0.0, self.total_s - cpu_s - queue_s),
        }

    def wire_size(self) -> int:
        return TRACE_BASE_BYTES + TRACE_HOP_BYTES * self.hop_count()

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "topic": self.topic,
            "source": self.source,
            "published_at": self.published_at,
            "delivered_at": self.delivered_at,
            "delivered_by": self.delivered_by,
            "delivered_to": list(self.delivered_to),
            "hops": [hop.as_dict() for hop in self.hops],
            **self.attribution(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompletedTrace #{self.trace_id} {self.topic} "
            f"by={self.delivered_by} hops={self.hop_count()}>"
        )


class Tracer:
    """Deterministic 1-in-N sampling of published events.

    A counter, not a PRNG: the simulation stays bit-reproducible and the
    sampled fraction is exact.  One tracer may be shared by a whole
    broker collection (network-wide 1%), or each entry point (broker,
    RTP proxy) can run its own.
    """

    __slots__ = ("sample_rate", "interval", "_publishes", "sampled")

    def __init__(self, sample_rate: float = 0.01):
        self._publishes = 0
        self.sampled = 0
        self.set_sample_rate(sample_rate)

    def set_sample_rate(self, sample_rate: float) -> None:
        """Adjust the sampling rate at runtime (takes effect on the next
        publish).  The publish counter is preserved, so a rate change is
        a pure re-parameterization — with an unchanged rate the sampled
        set is bit-identical to never having called this at all."""
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(f"sample rate {sample_rate} outside (0, 1]")
        self.sample_rate = sample_rate
        self.interval = max(1, round(1.0 / sample_rate))

    def should_sample(self, topic: str) -> bool:
        if internal_topic(topic):
            return False
        self._publishes += 1
        return self._publishes % self.interval == 0

    def sample(self, event, now: float) -> Optional[TraceContext]:
        """Attach a fresh trace to ``event`` if it is selected.

        Returns the context, or None when the event is not sampled.
        """
        if event.trace is not None or not self.should_sample(event.topic):
            return None
        context = TraceContext(
            topic=event.topic,
            source=event.source,
            published_at=event.published_at,
        )
        event.trace = context
        self.sampled += 1
        return context

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer 1/{self.interval} sampled={self.sampled}>"
