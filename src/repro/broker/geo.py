"""Geo partition survival: the plane a broker builds only with a region.

A broker its :class:`~repro.broker.spec.FabricSpec` places in a region
(such a spec also runs the link-state mesh) owns one :class:`Geo`: the stable broker set and its election, locality
pins, both park queues and their drain, and the WAN recent-send replay
window (DESIGN.md §12).  A regionless broker holds no geo state at all.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, Optional, Set, Tuple

from repro.broker.event import NBEvent
from repro.broker.links import SequencerPin
from repro.broker.ordering import SEQUENCER_CACHE_MAX
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


class Geo:
    """Partition survival state and protocol of one regional broker."""

    def __init__(self, broker):
        self.broker = broker
        #: How long a sent event stays replayable: the worst-case lag
        #: between a physical cut and heartbeat eviction of the dead
        #: peer, plus slack for the route recompute that follows.
        mesh = broker.mesh
        self.wan_recent_window = (mesh.miss_limit + 2) * mesh.interval_s
        #: High-watermark of every broker ever seen reachable — the
        #: "stable set" a partition minority measures itself against.
        self.stable_brokers: Set[str] = set()
        self._stable_sequencers: Dict[str, str] = {}
        self._stable_seq_gen = -1  # validated against len(stable_brokers)
        #: topic -> (pin epoch, pinned broker)
        self.pins: Dict[str, Tuple[int, str]] = {}
        #: topic -> origin broker -> sequenced count (current window)
        self._pin_counts: Dict[str, Dict[str, int]] = {}
        self.parked_ordered: Deque[Tuple[NBEvent, Optional[str]]] = deque()
        self.wan_parked: Deque[Tuple[NBEvent, FrozenSet[str]]] = deque()
        #: Reliable events recently *sent* toward remote targets, kept
        #: for one peer-eviction window: a regional cut blackholes the
        #: wire silently, so anything forwarded between the physical cut
        #: and the heartbeat eviction would otherwise be lost.  When a
        #: route disappears, the overlapping tail of this buffer is
        #: re-parked (receiver-side event-id dedup absorbs the replays
        #: for events that did arrive).
        self._wan_recent: Deque[Tuple[NBEvent, FrozenSet[str], float]] = deque()
        self._drain_pending = False

    # ------------------------------------------------------------ hooks

    def routes_changed(self, reachable: Set[str]) -> None:
        """A new route table: grow the stable set, re-park what the cut
        swallowed, and drain what the new routes may unblock.  The broker
        retains interest advertised by now-unreachable brokers: a cut-off
        region is expected back, and the WAN park needs to know exactly
        which interested brokers are owed a reliable event."""
        self.stable_brokers |= reachable
        self._replay_wan_recent(reachable)
        if self.parked_ordered or self.wan_parked:
            self._schedule_drain()

    def interest_added(self) -> None:
        """Fresh interest after a heal may unlock parked deliveries."""
        if self.wan_parked:
            self._schedule_drain()

    def track_reliable(
        self, event: NBEvent, targets: FrozenSet[str], groups: NextHopGroups
    ) -> None:
        """A reliable event is about to leave toward ``targets`` along
        ``groups``: park it for the interested brokers beyond a
        partition cut, and remember the send for the replay window."""
        if internal_topic(event.topic):
            return
        routed: Set[str] = set()
        for _hop, group in groups:
            routed |= group
        missing = targets - routed
        if missing:
            self._park_wan(event, missing)
        if routed:
            self._note_wan_sent(event, frozenset(routed))

    # ------------------------------------------------------- sequencing

    def pinned_sequencer(self, topic: str) -> Optional[str]:
        """The topic's pinned sequencer, while it is us or reachable."""
        pin = self.pins.get(topic)
        if pin is not None and (
            pin[1] == self.broker.broker_id or pin[1] in self.broker._routes
        ):
            return pin[1]
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
        pin = self.pins.get(topic)
        if pin is not None:
            return pin[1]
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
        current = self.pins.get(topic)
        pin = SequencerPin(
            topic=topic,
            broker=leader,
            epoch=(current[0] if current is not None else 0) + 1,
            next_sequence=broker.ordering.sequences.get(topic, 0),
            origin_broker=broker.broker_id,
        )
        self._apply_pin(pin)
        broker._flood_advert(pin, skip_peer=None)

    def on_pin(self, pin: SequencerPin, from_peer: Optional[str]) -> None:
        """Honour and re-flood a newer pin (the broker deduplicated and
        counted it)."""
        current = self.pins.get(pin.topic)
        if current is not None:
            if pin.epoch < current[0]:
                return
            if pin.epoch == current[0] and pin.broker >= current[1]:
                return  # tie: lexicographically smaller broker wins
        self._apply_pin(pin)
        self.broker._flood_advert(pin, skip_peer=from_peer)

    def _apply_pin(self, pin: SequencerPin) -> None:
        broker = self.broker
        ordering = broker.ordering
        self.pins[pin.topic] = (pin.epoch, pin.broker)
        broker.sequencer_pins_set += 1
        ordering.elections.pop(pin.topic, None)
        self._stable_sequencers.pop(pin.topic, None)
        if pin.broker == broker.broker_id:
            # Sequence-counter handoff: numbering continues where the
            # previous sequencer left off instead of restarting at 0.
            if pin.next_sequence > ordering.sequences.get(pin.topic, 0):
                ordering.sequences[pin.topic] = pin.next_sequence

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

    def _note_wan_sent(self, event: NBEvent, targets: FrozenSet[str]) -> None:
        now = self.broker.sim.now
        horizon = now - self.wan_recent_window
        while self._wan_recent and self._wan_recent[0][2] < horizon:
            self._wan_recent.popleft()
        self._wan_recent.append((event, targets, now))
        if len(self._wan_recent) > PARK_QUEUE_MAX:
            self._wan_recent.popleft()

    def _replay_wan_recent(self, reachable: Set[str]) -> None:
        """Re-park recently forwarded reliable events whose targets just
        fell out of the route table — they were sent into the window
        between the physical cut and heartbeat eviction, so the wire
        silently ate them.  Receiver-side event-id dedup absorbs the
        replays for copies that did arrive before the cut."""
        horizon = self.broker.sim.now - self.wan_recent_window
        kept: Deque[Tuple[NBEvent, FrozenSet[str], float]] = deque()
        for event, targets, at in self._wan_recent:
            if at < horizon:
                continue
            lost = targets - reachable
            if lost:
                self.broker.wan_replays += 1
                self._park_wan(event, frozenset(lost))
            remaining = targets & reachable
            if remaining:
                kept.append((event, remaining, at))
        self._wan_recent = kept

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
