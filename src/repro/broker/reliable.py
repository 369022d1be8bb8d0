"""Reliable and ordered delivery services (broker QoS).

The paper's messaging middleware "helps to ensure QoS requirements of
various collaboration applications" (Section 2).  Two services:

* **Reliability** (:class:`ReliableOutbox`): for datagram-style client
  links, the broker keeps a copy of each reliable event until the client
  acknowledges it, retransmitting on a timer.  Receivers deduplicate by
  event id (:class:`ReliableInbox`).
* **Ordering** (:class:`OrderedInbox`): ordered topics are sequenced by a
  single sequencer broker; receivers release events in sequence order,
  buffering gaps briefly before flushing (late events are dropped as
  duplicates of the flushed range).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from repro.broker.event import NBEvent
from repro.simnet.kernel import Simulator, Timer


class OutboxTally:
    """Running totals over a set of :class:`ReliableOutbox` es: events
    currently pending, and overflow evictions ever (closed outboxes
    included).  Each outbox adjusts the tally it was given wherever its
    own pending store changes, so the owner reads the aggregate in O(1)
    instead of visiting every outbox."""

    __slots__ = ("pending", "overflows")

    def __init__(self) -> None:
        self.pending = 0
        self.overflows = 0


class ReliableOutbox:
    """Broker-side per-client store of unacknowledged reliable events.

    ``on_abandon`` fires when an event exhausts its retry budget — the
    link is presumed dead, and the owner (the broker) can tear down the
    client's state instead of retrying the next event into the void.

    Pending entries are plain ``(event, timer, retries)`` tuples — the
    most compact per-event representation available (cheaper than a
    slotted instance) — keyed by event id.

    ``max_pending`` bounds the store: a dead-slow consumer used to grow
    it without limit.  When full, the *oldest* pending event is
    abandoned (drop-oldest — the consumer has had the longest to ack it
    and newer media supersedes it) and ``overflows`` counts the
    eviction.  Overflow abandons do **not** fire ``on_abandon``: the
    link is congested, not dead.

    ``tally`` is the owner's :class:`OutboxTally` shared by its
    outboxes (a private one when not given).
    """

    __slots__ = (
        "sim",
        "_send",
        "resend_interval_s",
        "max_interval_s",
        "max_retries",
        "max_pending",
        "on_abandon",
        "_pending",
        "_tally",
        "retransmissions",
        "abandoned",
        "overflows",
    )

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[NBEvent], None],
        resend_interval_s: float = 0.25,
        max_interval_s: float = 2.0,
        max_retries: int = 8,
        max_pending: int = 2048,
        on_abandon: Optional[Callable[[NBEvent], None]] = None,
        tally: Optional[OutboxTally] = None,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.sim = sim
        self._send = send
        self.resend_interval_s = resend_interval_s
        self.max_interval_s = max_interval_s
        self.max_retries = max_retries
        self.max_pending = max_pending
        self.on_abandon = on_abandon
        self._pending: Dict[int, Tuple[NBEvent, Timer, int]] = {}
        self._tally = tally if tally is not None else OutboxTally()
        self.retransmissions = 0
        self.abandoned = 0
        self.overflows = 0

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def _interval(self, retries: int) -> float:
        """Exponential backoff: the retry horizon outlives multi-second
        network blackouts without hammering a dead path."""
        return min(self.resend_interval_s * (2 ** retries), self.max_interval_s)

    def send(self, event: NBEvent) -> None:
        """Transmit and track until acknowledged."""
        pending, tally = self._pending, self._tally
        held = len(pending)
        if held >= self.max_pending:
            # Dict preserves insertion order, so the first key is the
            # oldest still-unacknowledged event.
            oldest_id = next(iter(pending))
            _event, timer, _retries = pending.pop(oldest_id)
            timer.cancel()
            self.overflows += 1
            tally.overflows += 1
        self._send(event)
        timer = self.sim.schedule(self._interval(0), self._resend, event.event_id)
        pending[event.event_id] = (event, timer, 0)
        tally.pending += len(pending) - held

    def ack(self, event_id: int) -> None:
        entry = self._pending.pop(event_id, None)
        if entry is not None:
            entry[1].cancel()
            self._tally.pending -= 1

    def _resend(self, event_id: int) -> None:
        entry = self._pending.pop(event_id, None)
        if entry is None:
            return
        event, _timer, retries = entry
        if retries >= self.max_retries:
            self.abandoned += 1
            self._tally.pending -= 1
            if self.on_abandon is not None:
                self.on_abandon(event)
            return
        self.retransmissions += 1
        self._send(event)
        timer = self.sim.schedule(
            self._interval(retries + 1), self._resend, event_id
        )
        self._pending[event_id] = (event, timer, retries + 1)

    def close(self) -> None:
        for _event, timer, _retries in self._pending.values():
            timer.cancel()
        self._tally.pending -= len(self._pending)
        self._pending.clear()
        # A send already queued on the broker's CPU when the client was
        # dropped still runs; it must not count against the owner.
        self._tally = OutboxTally()


class ReliableInbox:
    """Client-side dedup of redelivered reliable events."""

    __slots__ = ("_seen", "_order", "max_remembered", "duplicates")

    def __init__(self, max_remembered: int = 4096):
        self._seen: Set[int] = set()
        self._order: Deque[int] = deque()
        self.max_remembered = max_remembered
        self.duplicates = 0

    def accept(self, event: NBEvent) -> bool:
        """True if the event is new; False for a duplicate redelivery."""
        if event.event_id in self._seen:
            self.duplicates += 1
            return False
        self._seen.add(event.event_id)
        self._order.append(event.event_id)
        if len(self._order) > self.max_remembered:
            oldest = self._order.popleft()
            self._seen.discard(oldest)
        return True


class OrderedInbox:
    """Client-side per-topic resequencer for ordered events.

    Events carry a per-topic sequence stamped by the sequencer broker.
    Out-of-order arrivals are buffered; a gap older than ``gap_timeout_s``
    is flushed (delivery continues past the hole, which is counted).
    """

    __slots__ = (
        "sim",
        "_deliver",
        "gap_timeout_s",
        "_expected",
        "_buffer",
        "_gap_timers",
        "_sequencer",
        "gaps_flushed",
        "stale_dropped",
        "sequencer_changes",
    )

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[NBEvent], None],
        gap_timeout_s: float = 0.5,
    ):
        self.sim = sim
        self._deliver = deliver
        self.gap_timeout_s = gap_timeout_s
        self._expected: Dict[str, int] = {}
        self._buffer: Dict[str, Dict[int, NBEvent]] = {}
        self._gap_timers: Dict[str, Timer] = {}
        self._sequencer: Dict[str, str] = {}
        self.gaps_flushed = 0
        self.stale_dropped = 0
        self.sequencer_changes = 0

    def accept(self, event: NBEvent) -> None:
        if event.sequence is None:
            self._deliver(event)
            return
        topic = event.topic
        if event.sequenced_by is not None:
            known = self._sequencer.get(topic)
            if known is None:
                self._sequencer[topic] = event.sequenced_by
            elif known != event.sequenced_by:
                # The topic was re-sequenced by a different broker (mesh
                # failover or partition heal): its counter is unrelated to
                # the old one, so restart expectations at this event.
                self._sequencer[topic] = event.sequenced_by
                self.sequencer_changes += 1
                self._reset_topic(topic, event.sequence)
        expected = self._expected.get(topic, 0)
        if event.sequence < expected:
            self.stale_dropped += 1
            return
        buffer = self._buffer.setdefault(topic, {})
        buffer[event.sequence] = event
        self._release(topic)
        if buffer and topic not in self._gap_timers:
            self._gap_timers[topic] = self.sim.schedule(
                self.gap_timeout_s, self._flush_gap, topic
            )

    def _release(self, topic: str) -> None:
        buffer = self._buffer.get(topic, {})
        expected = self._expected.get(topic, 0)
        while expected in buffer:
            event = buffer.pop(expected)
            expected += 1
            self._deliver(event)
        self._expected[topic] = expected
        if not buffer:
            timer = self._gap_timers.pop(topic, None)
            if timer is not None:
                timer.cancel()

    def _reset_topic(self, topic: str, next_expected: int) -> None:
        """Flush one topic's buffer in order and restart its expectation."""
        timer = self._gap_timers.pop(topic, None)
        if timer is not None:
            timer.cancel()
        buffer = self._buffer.pop(topic, None)
        self._expected[topic] = next_expected
        if buffer:
            for sequence in sorted(buffer):
                self._deliver(buffer[sequence])

    def reset(self) -> None:
        """Flush everything buffered (in per-topic sequence order) and
        forget sequence expectations.

        Used when a client fails over to a new broker: the new sequencer
        numbers topics from its own counter, so expectations carried over
        from the dead broker would wrongly classify fresh events as stale
        or as unbounded gaps.
        """
        for timer in self._gap_timers.values():
            timer.cancel()
        self._gap_timers.clear()
        buffers, self._buffer = self._buffer, {}
        self._expected.clear()
        self._sequencer.clear()
        for topic in sorted(buffers):
            buffer = buffers[topic]
            for sequence in sorted(buffer):
                self._deliver(buffer[sequence])

    def _flush_gap(self, topic: str) -> None:
        self._gap_timers.pop(topic, None)
        buffer = self._buffer.get(topic)
        if not buffer:
            return
        # Skip to the oldest buffered sequence and deliver from there.
        self.gaps_flushed += 1
        self._expected[topic] = min(buffer)
        self._release(topic)
        if buffer:
            self._gap_timers[topic] = self.sim.schedule(
                self.gap_timeout_s, self._flush_gap, topic
            )
