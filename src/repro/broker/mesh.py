"""The autonomous mesh: peer heartbeats, link-state flooding, Dijkstra.

A broker built with a peer-heartbeat interval owns one :class:`Mesh`.
Heartbeats detect dead neighbours without any central announcement, and
flooded link-state adverts let every broker compute its own next-hop
table.  A central-plane broker (routes pushed by
:class:`~repro.broker.network.BrokerNetwork`) has no mesh at all.

The advert protocol is written once, as :class:`LinkStateTier`: every
broker runs a member tier over its intra-cluster peers, and a cluster
gateway runs a second tier over the gateway overlay
(:class:`~repro.broker.gateway.Gateway`).  Both tiers share the
broker's dedup window, its ``lsas_*`` counters and the mesh's one
debounced route recompute.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.broker.epoch_table import ECHO, NEWER, STALE, EpochTable
from repro.broker.links import LinkStateAdvert, LinkStateDigest, PeerHeartbeat

#: Every Nth peer-heartbeat tick also carries a link-state digest, so
#: LSAs lost to the network (floods are unreliable datagrams) are
#: repaired by anti-entropy within a few heartbeat intervals.
ANTI_ENTROPY_TICKS = 4

#: Cost-class quantization ladder for WAN-aware routing (geo mode):
#: one-way latency upper bound (seconds) → integer cost class.  Costs
#: derive from *configured* link/fabric latency, never from jittered
#: samples, and the ladder is coarse on purpose: a route only
#: re-originates when a link crosses a class boundary, so latency
#: jitter can never flap the route tables.
COST_CLASSES = (
    (0.002, 1),    # same rack / metro LAN
    (0.010, 2),    # campus
    (0.030, 4),    # regional WAN
    (0.060, 8),    # continental WAN
    (0.120, 16),   # transoceanic
)
COST_CLASS_MAX = 32


def cost_class(latency_s: float) -> int:
    """Quantize a configured one-way latency into a routing cost class.

    Classes come from *configured* link/fabric latencies only — never
    from per-packet samples — so jitter cannot move an adjacency between
    classes and cost changes are as rare as topology changes.
    """
    for ceiling, cls in COST_CLASSES:
        if latency_s < ceiling:
            return cls
    return COST_CLASS_MAX


def dijkstra(
    me: str,
    claimed: Dict[str, FrozenSet[str]],
    costs: Dict[str, Dict[str, int]],
) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Cost-weighted shortest paths over a two-sided-claim adjacency;
    returns (destination → first hop, destination → distance).

    An edge counts only when *both* endpoints advertise it (a broker
    that evicted us no longer routes through us, so we must not route
    through it either).  Its weight is the larger of the two endpoints'
    advertised cost classes, defaulting to 1 when neither side
    advertises any — so a costless database degenerates to exactly the
    pre-geo unit-weight hop count, heap order included.  Ties break on
    (distance, node) lexicographically so every broker derives
    consistent paths regardless of cost spread.
    """
    adjacency: Dict[str, Set[str]] = {
        origin: {
            neighbor
            for neighbor in neighbors
            if origin in claimed.get(neighbor, ())
        }
        for origin, neighbors in claimed.items()
    }
    if costs:
        def weight(a: str, b: str) -> int:
            side_a = costs.get(a)
            side_b = costs.get(b)
            cost_a = side_a.get(b, 1) if side_a else 1
            cost_b = side_b.get(a, 1) if side_b else 1
            return cost_a if cost_a >= cost_b else cost_b
    else:
        def weight(a: str, b: str) -> int:
            return 1
    routes: Dict[str, str] = {}
    dist: Dict[str, int] = {me: 0}
    heap: List[Tuple[int, str, str]] = []
    for neighbor in sorted(adjacency.get(me, ())):
        heapq.heappush(heap, (weight(me, neighbor), neighbor, neighbor))
    while heap:
        d, node, first_hop = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        routes[node] = first_hop
        for neighbor in sorted(adjacency.get(node, ())):
            if neighbor not in dist:
                heapq.heappush(
                    heap, (d + weight(node, neighbor), neighbor, first_hop)
                )
    return routes, dist


class LinkStateTier:
    """One link-state tier: our adjacency over ``scope`` flooded as
    epoch-versioned :class:`LinkStateAdvert`\\ s, and everyone else's
    held in ``table`` as ``origin → (epoch, neighbors, costs or None,
    cluster_id)``.

    ``cluster_id`` is ``None`` for the member tier and names our cluster
    on the gateway tier; adverts carry it, so a receiver knows which
    tier an advert belongs to.  ``scope()`` returns the tier's peers in
    send order — they are both the flood scope and the adjacency we
    advertise.
    """

    def __init__(
        self,
        mesh: "Mesh",
        scope: Callable[[], Sequence[str]],
        cluster_id: Optional[str] = None,
    ):
        self.mesh = mesh
        self.broker = mesh.broker
        self.scope = scope
        self.cluster_id = cluster_id
        self.table = EpochTable(self.broker.broker_id)
        #: Cost classes in our last originated advert (geo mode).
        self.advertised_costs: Dict[str, int] = {}

    def originate(self) -> None:
        """Flood a fresh advert for our current adjacency."""
        broker = self.broker
        broker.lsas_originated += 1
        neighbors = frozenset(self.scope())
        costs = self.mesh.cost_classes(neighbors) if broker._geo else None
        epoch = self.table.originate(neighbors, costs or None, self.cluster_id)
        self.advertised_costs = costs or {}
        self.flood(
            LinkStateAdvert(
                origin_broker=broker.broker_id,
                epoch=epoch,
                neighbors=neighbors,
                costs=costs or None,
                cluster_id=self.cluster_id,
            ),
            skip_peer=None,
        )
        self.mesh.schedule_recompute()

    def recost(self) -> None:
        """Re-originate only when an adjacency's *cost class* moved —
        classes derive from configured latencies, not samples, so this
        fires on real reconfiguration (a path override, a region
        change), never on jitter.  No flap storms."""
        current = self.mesh.cost_classes(frozenset(self.scope()))
        if current != self.advertised_costs:
            self.broker.cost_reoriginations += 1
            self.originate()

    def flood(self, advert, skip_peer: Optional[str]) -> None:
        """Send a dedup-windowed advert to every peer in scope except
        the one it arrived from."""
        broker = self.broker
        broker._seen_adverts.add(advert.advert_id)
        if self.cluster_id is None and broker._intercluster_peers:
            # A member LSA kept off this gateway's inter-cluster links.
            broker.cluster_lsas_scoped += 1
        cpu, cost = broker.host.cpu, broker.profile.control_cost_s
        for peer_id in self.scope():
            if peer_id != skip_peer:
                cpu.execute(cost, broker._send_peer, peer_id, advert)

    def on_advert(self, lsa: LinkStateAdvert, from_peer: Optional[str]) -> None:
        broker = self.broker
        if not broker._seen_adverts.add(lsa.advert_id):
            broker.lsas_deduped += 1
            return
        broker.control_messages += 1
        broker.lsas_received += 1
        verdict = self.table.offer(
            lsa.origin_broker, lsa.epoch, lsa.neighbors, lsa.costs or None,
            lsa.cluster_id,
        )
        if verdict is ECHO:
            self.originate()
        elif verdict is STALE:
            broker.lsas_stale += 1
        elif verdict is NEWER:
            self.flood(lsa, skip_peer=from_peer)
            self.mesh.schedule_recompute()

    def newer_adverts(self, theirs: Dict[str, int]) -> List[LinkStateAdvert]:
        """Adverts for every entry strictly newer than a peer's digest."""
        return [
            LinkStateAdvert(
                origin_broker=origin,
                epoch=epoch,
                neighbors=neighbors,
                costs=costs,
                cluster_id=cluster_id,
            )
            for origin, epoch, neighbors, costs, cluster_id
            in self.table.newer_than(theirs)
        ]

    def shortest_paths(self) -> Tuple[Dict[str, str], Dict[str, int]]:
        """Dijkstra over the table, with our live adjacency for us —
        cost-weighted when any origin advertises cost classes (geo
        mode), unit-weight otherwise."""
        claimed: Dict[str, FrozenSet[str]] = {}
        costs: Dict[str, Dict[str, int]] = {}
        for origin, (_, neighbors, cost, _) in self.table.items():
            claimed[origin] = neighbors
            if cost:
                costs[origin] = cost
        claimed[self.broker.broker_id] = frozenset(self.scope())
        return dijkstra(self.broker.broker_id, claimed, costs)

    def forget_unreachable(self, dist: Dict[str, int]) -> List[str]:
        """Drop (and return) every origin the last Dijkstra left
        unreachable."""
        own = self.broker.broker_id
        gone = [o for o in self.table if o != own and o not in dist]
        for origin in gone:
            del self.table[origin]
        return gone


class Mesh:
    """Peer failure detection and link-state routing for one broker."""

    def __init__(self, broker, interval_s: float, miss_limit: int):
        self.broker = broker
        self.interval_s = interval_s
        self.miss_limit = miss_limit
        #: peer → when any traffic from it last arrived (the broker's
        #: peer receive path writes this directly).
        self.last_heard: Dict[str, float] = {}
        self._timer = None
        self._ticks = 0
        self._recompute_pending = False
        self.member = LinkStateTier(self, lambda: broker._intra_sorted)
        self._arm()

    # ------------------------------------------------ peer failure detection

    def _arm(self) -> None:
        self._timer = self.broker.sim.schedule(self.interval_s, self._tick)

    def _tick(self) -> None:
        self._timer = None
        broker = self.broker
        if broker._closed:
            return
        self._ticks += 1
        deadline = broker.sim.now - self.interval_s * self.miss_limit
        for peer_id in [
            peer
            for peer in broker._sorted_peers
            if self.last_heard.get(peer, 0.0) < deadline
        ]:
            # Declare a silent peer dead — no central announcement.
            # ``remove_peer`` re-originates our LSA; once the flood
            # converges and the dead broker is globally unreachable,
            # every survivor's ``set_routes`` purges its interest.
            broker.peers_evicted += 1
            broker.remove_peer(peer_id)
        beat = PeerHeartbeat(origin_broker=broker.broker_id)
        send_digest = self._ticks % ANTI_ENTROPY_TICKS == 0
        gateway = broker.gateway
        if broker._geo and send_digest:
            self.member.recost()
            if gateway is not None:
                gateway.overlay.recost()
        cpu, cost = broker.host.cpu, broker.profile.control_cost_s
        for peer_id in broker._sorted_peers:
            cpu.execute(cost, broker._send_peer, peer_id, beat)
            if not send_digest:
                continue
            # Inter-cluster links repair gateway-tier state only;
            # co-gateways reconcile both tiers, so a standby's shadow
            # state survives lost overlay floods.
            if peer_id not in broker._intercluster_peers:
                cpu.execute(cost, broker._send_peer, peer_id, self.digest())
            if gateway is not None and gateway.on_overlay(peer_id):
                cpu.execute(cost, broker._send_peer, peer_id, gateway.digest())
        self._arm()

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------- link events

    def link_up(self, peer_id: str, intercluster: bool) -> None:
        """A link came up (first wiring, or a partition healed): flood
        our new adjacency on each tier it belongs to, reconcile
        databases via digest exchange, and re-offer known interest over
        an intra-cluster edge so the other side routes events toward us
        again."""
        broker = self.broker
        self.last_heard[peer_id] = broker.sim.now
        cpu, cost = broker.host.cpu, broker.profile.control_cost_s
        if not intercluster:
            self.member.originate()
            cpu.execute(cost, broker._send_peer, peer_id, self.digest())
            broker._sync_subscriptions_to_peer(peer_id)
        gateway = broker.gateway
        if gateway is not None and (
            intercluster or peer_id in gateway.cluster_gateways
        ):
            gateway.overlay.originate()
            cpu.execute(cost, broker._send_peer, peer_id, gateway.digest())

    def link_down(self, peer_id: str, intercluster: bool) -> None:
        self.last_heard.pop(peer_id, None)
        if not intercluster:
            self.member.originate()
        gateway = self.broker.gateway
        if gateway is not None and (
            intercluster or peer_id in gateway.cluster_gateways
        ):
            gateway.overlay.originate()

    # -------------------------------------------------- link-state routing

    def cost_classes(self, peers: FrozenSet[str]) -> Dict[str, int]:
        """Cost class per adjacency, from the simnet's configured path
        latency plus our own access-link latency."""
        broker = self.broker
        network = broker.host.network
        own = broker.host.link.latency_s
        costs: Dict[str, int] = {}
        for peer_id in peers:
            address = broker._peers.get(peer_id)
            if address is None:
                continue
            latency = network.fabric_latency(broker.host.name, address.host)
            costs[peer_id] = cost_class(latency + own)
        return costs

    def digest(self) -> LinkStateDigest:
        return LinkStateDigest(
            origin_broker=self.broker.broker_id,
            epochs=self.member.table.epochs(),
        )

    def on_advert(self, lsa: LinkStateAdvert, from_peer: Optional[str]) -> None:
        if lsa.cluster_id is None:
            self.member.on_advert(lsa, from_peer)
        elif self.broker.gateway is not None:
            self.broker.gateway.overlay.on_advert(lsa, from_peer)

    def on_digest(self, digest: LinkStateDigest, from_peer: Optional[str]) -> None:
        """Member-tier anti-entropy: push strictly-newer LSAs to the
        peer, and ask back (with our digest) when strictly behind."""
        broker = self.broker
        if from_peer is None or from_peer in broker._intercluster_peers:
            return  # member LSDBs never reconcile across a cluster boundary
        broker.control_messages += 1
        broker._offer(from_peer, self.member.newer_adverts(digest.epochs))
        if self.member.table.behind(digest.epochs):
            broker.host.cpu.execute(
                broker.profile.control_cost_s,
                broker._send_peer, from_peer, self.digest(),
            )

    def schedule_recompute(self) -> None:
        """Debounced local route recompute (many LSAs from either tier,
        one Dijkstra)."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.broker.sim.schedule(0.0, self._recompute)

    def _recompute(self) -> None:
        """Compute our next-hop table from the link-state databases."""
        self._recompute_pending = False
        broker = self.broker
        if broker._closed:
            return
        routes, dist = self.member.shortest_paths()
        gateway = broker.gateway
        if gateway is not None:
            routes, gw_dist = gateway.merge_routes(routes)
        broker.set_routes(routes)
        # Forget unreachable origins: their interest was just purged by
        # set_routes, and dropping the stale LSDB entry means a restarted
        # broker re-enters at epoch 1 without fighting its past life.
        # Geo mode retains them instead — a WAN partition makes half the
        # fabric "unreachable" for seconds, and the retained entries keep
        # the foreign-gateway filter and stable-set election truthful
        # while it lasts (the LSA echo rule still resolves restarts).
        if not broker._geo:
            self.member.forget_unreachable(dist)
        if gateway is not None:
            gateway.routes_changed(gw_dist)
