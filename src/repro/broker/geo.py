"""Geo partition survival: the plane a broker builds only with a region.

A broker its :class:`~repro.broker.spec.FabricSpec` places in a region
(such a spec also runs the link-state mesh) owns one :class:`Geo`: the
stable broker set and its election, locality pins, both park queues and
their drain, and the WAN recent-send replay window (DESIGN.md §12).  A
regionless broker holds no geo state at all.  Pins are flooded by
coverage (:func:`~repro.broker.epoch_table.flood`) and repaired by the
member :class:`~repro.broker.links.LinkStateDigest`, which carries each
broker's pin versions.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, FrozenSet, Optional, Set, Tuple

from repro.broker.epoch_table import NEWER, EpochTable, flood
from repro.broker.event import NBEvent
from repro.broker.links import EventAck, PeerEvent, SequencerPin
from repro.broker.ordering import SEQUENCER_CACHE_MAX
from repro.broker.reliable import ReliableOutbox
from repro.broker.route_cache import NextHopGroups
from repro.obs.trace import internal_topic

#: Locality pinning: after this many sequenced events on a topic, the
#: current sequencer checks where the publishes actually originate, and
#: re-pins the topic to a broker contributing more than
#: SEQUENCER_PIN_MAJORITY of them.  The counting window resets after
#: every decision, so a transient publisher burst cannot bounce the pin
#: — it must dominate a full fresh window (hysteresis).
SEQUENCER_PIN_WINDOW = 64
SEQUENCER_PIN_MAJORITY = 0.6

#: Bound on each partition-park queue (ordered events awaiting an
#: unreachable sequencer; reliable events awaiting unreachable
#: interested brokers).  Oldest entries drop first under cap pressure,
#: mirroring the bounded reliable outbox.
PARK_QUEUE_MAX = 2048


class PinTable(EpochTable):
    """``topic → ((epoch, broker), pin)``: the pin held per topic, under
    the pin rule — a higher epoch wins, then the smaller broker, so
    every replica converges on one pin.  No topic is ours to originate."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(None)

    @staticmethod
    def outranks(
        version: Tuple[int, str], held: Optional[Tuple[int, str]]
    ) -> bool:
        return held is None or (-version[0], version[1]) < (-held[0], held[1])

    def pinned(self, topic: str) -> Optional[str]:
        """The broker ``topic`` is pinned to, if any."""
        held = self.held(topic)
        return held[1] if held is not None else None

    @staticmethod
    def message(topic, version, pin: SequencerPin, covered) -> SequencerPin:
        """An entry as the pin that carries it (:func:`push_newer`'s
        ``message``)."""
        return pin.replace(covered=covered)


class Geo:
    """Partition survival state and protocol of one regional broker."""

    def __init__(self, broker, spec):
        self.broker = broker
        self._region_of = spec.region_of
        #: High-watermark of every broker ever seen reachable — the
        #: "stable set" a partition minority measures itself against.
        self.stable_brokers: Set[str] = set()
        self._stable_sequencers: Dict[str, str] = {}
        self._stable_seq_gen = -1  # validated against len(stable_brokers)
        self.pins = PinTable()
        #: topic -> origin broker -> sequenced count (current window)
        self._pin_counts: Dict[str, Dict[str, int]] = {}
        self.parked_ordered: Deque[Tuple[NBEvent, Optional[str]]] = deque()
        self.wan_parked: Deque[Tuple[NBEvent, FrozenSet[str]]] = deque()
        #: WAN peer → reliable events sent to it and not yet acked.
        self.wan_outboxes: Dict[str, ReliableOutbox] = {}
        self._drain_pending = False

    # ------------------------------------------------------------ hooks

    def routes_changed(self, reachable: Set[str]) -> None:
        """A new route table: grow the stable set and drain what the new
        routes may unblock.  The broker retains interest advertised by
        now-unreachable brokers: a cut-off region is expected back, and
        the WAN park needs to know exactly which interested brokers are
        owed a reliable event."""
        self.stable_brokers |= reachable
        if self.parked_ordered or self.wan_parked:
            self._schedule_drain()

    def interest_added(self) -> None:
        """Fresh interest after a heal may unlock parked deliveries."""
        if self.wan_parked:
            self._schedule_drain()

    def park_unrouted(
        self, event: NBEvent, targets: FrozenSet[str], groups: NextHopGroups
    ) -> None:
        """A reliable event is about to leave toward ``targets`` along
        ``groups``: park it for the interested brokers beyond a
        partition cut."""
        if internal_topic(event.topic):
            return
        routed: Set[str] = set()
        for _hop, group in groups:
            routed |= group
        missing = targets - routed
        if missing:
            self._park_wan(event, missing)

    # ------------------------------------------------------------- WAN

    def _across_wan(self, peer_id: Optional[str], event: NBEvent) -> bool:
        """Whether a reliable ``event`` on the link to ``peer_id`` is
        held until acked: the peer is in another region (a WAN link,
        which drops datagrams) and the topic is not internal."""
        region = self._region_of(peer_id) if peer_id is not None else None
        return (
            region is not None
            and region != self.broker.region
            and not internal_topic(event.topic)
        )

    def send_reliable(self, peer_id: str, message: PeerEvent) -> None:
        """Send a reliable event to a peer.  Over a WAN link it stays in
        that peer's outbox, resent on the outbox's timer until the peer
        acks it: one lost copy would otherwise lose the event for every
        subscriber behind the peer.  A WAN link already gone (the routes
        not yet recomputed) parks it for the drain instead."""
        broker = self.broker
        if not self._across_wan(peer_id, message.event):
            broker._send_peer(peer_id, message)
            return
        if not broker.has_peer(peer_id):
            self._park_wan(message.event, message.targets)
            return
        outbox = self.wan_outboxes.get(peer_id)
        if outbox is None:
            outbox = self.wan_outboxes[peer_id] = ReliableOutbox(
                broker.sim, partial(broker._send_peer, peer_id)
            )
        outbox.send(message)

    def ack_reliable(self, event: NBEvent, from_peer: Optional[str]) -> None:
        """Ack a reliable event that came over a WAN link — a resent
        copy too, whose first ack was lost."""
        if self._across_wan(from_peer, event):
            broker = self.broker
            ack = EventAck(broker.broker_id, event.event_id)
            broker.send_control(from_peer, ack)

    def on_ack(self, ack: EventAck, from_peer: Optional[str]) -> None:
        outbox = self.wan_outboxes.get(from_peer)
        if outbox is not None:
            outbox.ack(ack.event_id)

    def link_down(self, peer_id: str) -> None:
        """Stop resending to a peer whose link went down, and park what it
        did not ack for its targets: a cut blackholes the wire silently
        until heartbeat eviction, so those copies may all be lost.  The
        drain after the route change forwards them by the new routes, or
        at the heal (subscribers drop a copy that did arrive, by id)."""
        outbox = self.wan_outboxes.pop(peer_id, None)
        if outbox is not None:
            for message in outbox.close():
                self._park_wan(message.event, message.targets)

    def close(self) -> None:
        for outbox in self.wan_outboxes.values():
            outbox.close()

    # ------------------------------------------------------- sequencing

    def pinned_sequencer(self, topic: str) -> Optional[str]:
        """The topic's pinned sequencer, while it is us or reachable."""
        pinned = self.pins.pinned(topic)
        if pinned == self.broker.broker_id or pinned in self.broker._routes:
            return pinned
        return None

    def parks_ordered(
        self, event: NBEvent, exclude: Optional[str], sequencer: str, fresh: bool
    ) -> bool:
        """Park an ordered event that must not be sequenced now; True if
        parked.  ``fresh`` is a local publish (not a relayed request)."""
        broker = self.broker
        if sequencer != broker.broker_id and sequencer not in broker._routes:
            # A sequencer we cannot currently reach (a pinned one, or a
            # mid-flight topology change cut it off): never fall back to
            # a local election while it holds — that is exactly the
            # sequence-number fork to avoid — and never drop the forward.
            self._park_ordered(event, exclude)
            return True
        if (
            fresh
            and self.in_minority()
            and self._stable_sequencer_for(event.topic) != sequencer
        ):
            # Minority side of a partition: the stable set elects a
            # broker beyond the cut, who is still sequencing for the
            # majority.  Park instead of forking.
            self._park_ordered(event, exclude)
            return True
        return False

    def in_minority(self) -> bool:
        """True when we can reach at most half of the stable broker set:
        the conservative side of a partition, which must park ordered
        topics rather than fork their sequence numbers."""
        return (len(self.broker._routes) + 1) * 2 <= len(self.stable_brokers)

    def _stable_sequencer_for(self, topic: str) -> str:
        """The sequencer the *full* (high-watermark) broker set elects —
        what the unreachable majority is presumed to still be using."""
        pinned = self.pins.pinned(topic)
        if pinned is not None:
            return pinned
        if self._stable_seq_gen != len(self.stable_brokers):
            self._stable_sequencers.clear()
            self._stable_seq_gen = len(self.stable_brokers)
        sequencer = self._stable_sequencers.get(topic)
        if sequencer is None:
            broker = self.broker
            candidates = sorted(self.stable_brokers | {broker.broker_id})
            sequencer = broker.ordering.hash_elect(topic, candidates)
            self._stable_sequencers[topic] = sequencer
            if len(self._stable_sequencers) > SEQUENCER_CACHE_MAX:
                del self._stable_sequencers[
                    next(iter(self._stable_sequencers))
                ]
        return sequencer

    def note_sequenced(self, topic: str, origin: str) -> None:
        """Count where sequenced publishes originate (we are the topic's
        sequencer); after a full window, re-pin the topic to a broker
        contributing a sustained majority of them."""
        counts = self._pin_counts.setdefault(topic, {})
        counts[origin] = counts.get(origin, 0) + 1
        total = sum(counts.values())
        if total < SEQUENCER_PIN_WINDOW:
            return
        self._pin_counts[topic] = {}
        leader = next(
            (
                broker
                for broker, count in sorted(counts.items())
                if count > total * SEQUENCER_PIN_MAJORITY
            ),
            None,
        )
        broker = self.broker
        if (
            leader is None
            or leader == broker.broker_id
            or leader not in broker._routes
        ):
            return
        held = self.pins.held(topic)
        own = broker.broker_id
        pin = SequencerPin(
            topic=topic,
            broker=leader,
            epoch=(held[0] if held is not None else 0) + 1,
            next_sequence=broker.ordering.sequences.get(topic, 0),
            origin_broker=own,
            covered=frozenset((own,)),
        )
        self._apply_pin(pin)

    def on_pin(self, pin: SequencerPin) -> None:
        """Apply (and forward) a pin outranking the one held for its
        topic."""
        if self._apply_pin(pin):
            self.broker.control_messages += 1

    def _apply_pin(self, pin: SequencerPin) -> bool:
        """Hold ``pin`` for its topic and flood it on, if it outranks the
        pin held; returns whether it did."""
        if self.pins.offer(pin.topic, (pin.epoch, pin.broker), pin) is not NEWER:
            return False
        broker = self.broker
        ordering = broker.ordering
        broker.sequencer_pins_set += 1
        ordering.elections.pop(pin.topic, None)
        self._stable_sequencers.pop(pin.topic, None)
        if pin.broker == broker.broker_id:
            # Sequence-counter handoff: numbering continues where the
            # previous sequencer left off instead of restarting at 0.
            if pin.next_sequence > ordering.sequences.get(pin.topic, 0):
                ordering.sequences[pin.topic] = pin.next_sequence
        flood(broker, broker._intra_sorted, pin)
        return True

    # --------------------------------------------------------- parking

    def _park_ordered(self, event: NBEvent, exclude: Optional[str]) -> None:
        broker = self.broker
        broker.ordered_parked += 1
        self.parked_ordered.append((event, exclude))
        if len(self.parked_ordered) > PARK_QUEUE_MAX:
            self.parked_ordered.popleft()
            broker.ordered_park_drops += 1

    def _park_wan(self, event: NBEvent, missing: FrozenSet[str]) -> None:
        broker = self.broker
        broker.wan_parked += 1
        self.wan_parked.append((event, missing))
        if len(self.wan_parked) > PARK_QUEUE_MAX:
            self.wan_parked.popleft()
            broker.wan_park_drops += 1

    def _schedule_drain(self) -> None:
        if self._drain_pending:
            return
        self._drain_pending = True
        self.broker.sim.schedule(0.0, self._run_drain)

    def _run_drain(self) -> None:
        """Re-run parked ordered publishes through sequencing, then
        forward parked reliable events to interested brokers that became
        reachable again.  Whatever is still beyond the cut re-parks for a
        later heal — the drain only runs after a topology change or fresh
        interest, so it cannot spin."""
        self._drain_pending = False
        broker = self.broker
        if broker._closed:
            return
        ordered = list(self.parked_ordered)
        self.parked_ordered.clear()
        for event, exclude in ordered:
            broker.ordered_park_drained += 1
            broker.ordering.sequence(event, exclude)
        reachable = set(broker._routes)
        wan = list(self.wan_parked)
        self.wan_parked.clear()
        for event, missing in wan:
            targets = missing & reachable
            if targets:
                broker.wan_park_drained += 1
                broker._forward_to_targets(event, set(targets))
                missing = missing - targets
            if missing:
                self.wan_parked.append((event, frozenset(missing)))
