"""The ordering plane, built by every broker: one sequencer per ordered
topic — the known broker hashing lowest, or in geo mode the one its
locality pin names (:mod:`repro.broker.geo`) — and one sequencing path
for a local ordered publish and a relayed ``SequenceRequest`` alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.broker.event import NBEvent
from repro.broker.links import SequenceRequest
from repro.obs.trace import HopRecord
from repro.simnet.rng import sha256

#: Bound on cached (topic → sequencer) elections.
SEQUENCER_CACHE_MAX = 4096


class Ordering:
    """Sequencer election and per-topic sequence counters of one broker."""

    def __init__(self, broker):
        self.broker = broker
        #: topic → elected sequencer, valid while ``elections_gen`` is
        #: the broker's ``_routes_gen``.
        self.elections: Dict[str, str] = {}
        self.elections_gen = -1
        #: topic → next sequence number (we sequence it).
        self.sequences: Dict[str, int] = {}
        #: topic → last sequencer elected, across route generations.
        self._last_elected: Dict[str, str] = {}

    def sequencer_for(self, topic: str) -> str:
        """Deterministic sequencer election for an ordered topic.

        The election only depends on the topic and the known-broker set
        (plus any locality pin in geo mode), so it is cached per
        (topic, routing generation).  Validating against ``_routes_gen``
        rather than only route-table installs closes the heal window:
        the generation bumps the instant a peer link comes back
        (``add_peer`` → ``_peers_changed``), before the held-back route
        recompute runs, so a cached pre-partition election can never be
        served after the topology visibly changed.
        """
        broker = self.broker
        if self.elections_gen != broker._routes_gen:
            self.elections.clear()
            self.elections_gen = broker._routes_gen
        sequencer = self.elections.get(topic)
        if sequencer is None:
            if broker.geo is not None:
                sequencer = broker.geo.pinned_sequencer(topic)
            if sequencer is None:
                sequencer = self.hash_elect(topic, broker.known_brokers())
            self.elections[topic] = sequencer
            if len(self.elections) > SEQUENCER_CACHE_MAX:
                del self.elections[next(iter(self.elections))]
            # Track re-elections across epochs: a change means in-flight
            # ordered streams restarted their sequence expectations.
            previous = self._last_elected.get(topic)
            if previous is not None and previous != sequencer:
                broker.sequencer_changes += 1
            self._last_elected[topic] = sequencer
            if len(self._last_elected) > SEQUENCER_CACHE_MAX:
                del self._last_elected[next(iter(self._last_elected))]
        return sequencer

    def hash_elect(self, topic: str, candidates: List[str]) -> str:
        gateway = self.broker.gateway
        if gateway is not None:
            # Gateways also know foreign gateways; elections must stay
            # cluster-local so every member of the cluster (gateway or
            # not) derives the same sequencer.  Ordering domains are per
            # cluster — see DESIGN.md.
            foreign = gateway.foreign_gateways()
            candidates = [b for b in candidates if b not in foreign]
        return min(
            candidates,
            key=lambda broker: sha256(
                f"{topic}|{broker}".encode()
            ).hexdigest(),
        )

    def sequence(
        self,
        event: NBEvent,
        exclude: Optional[str],
        hop: Optional[HopRecord] = None,
        request: Optional[SequenceRequest] = None,
    ) -> None:
        """Sequence an ordered event: a fresh local publish (``request``
        is None; ``exclude`` is its publisher) or a ``request`` relayed
        from its origin broker.  Stamp and disseminate when we are the
        topic's sequencer, else send the request on toward it."""
        broker = self.broker
        me = broker.broker_id
        cpu, profile = broker.host.cpu, broker.profile
        sequencer = self.sequencer_for(event.topic)
        geo = broker.geo
        if geo is not None and geo.parks_ordered(
            event, exclude, sequencer, fresh=request is None
        ):
            return
        if sequencer == me:
            if geo is not None:
                geo.note_sequenced(
                    event.topic, me if request is None else request.origin_broker
                )
            event.sequence = self.sequences.get(event.topic, 0)
            event.sequenced_by = me
            self.sequences[event.topic] = event.sequence + 1
            if hop is not None:
                cpu.execute_traced(
                    profile.route_cost_s,
                    broker._disseminate, event, exclude, hop=hop,
                )
            else:
                cpu.execute(
                    profile.route_cost_s, broker._disseminate, event, exclude
                )
            return
        if request is None:
            request = SequenceRequest(event=event, origin_broker=me)
        if hop is not None:
            hop.link = f"seq:{sequencer}"
            cpu.execute_traced(
                profile.forward_cost_s,
                broker._send_stamped, hop, broker._send_peer_toward,
                sequencer, request, hop=hop,
            )
        else:
            cpu.execute(
                profile.forward_cost_s,
                broker._send_peer_toward, sequencer, request,
            )
