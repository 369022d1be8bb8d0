"""A single NaradaBrokering-style broker node.

Responsibilities:

* accept client connections over UDP / TCP / SSL / HTTP-tunnel links;
* maintain the local subscription trie and deliver published events to
  matching local clients (excluding the publisher — ``noLocal`` semantics,
  which is what RTP loops through topics require);
* exchange subscription adverts with peer brokers (flooded, deduplicated)
  so events are only forwarded toward brokers with matching interest;
* forward events across the broker graph along shortest-path next hops,
  carrying an explicit target set so no broker receives a duplicate;
* sequence ordered topics (this broker is the deterministic "sequencer"
  for a topic when it hashes lowest among known brokers);
* track reliable events per datagram client until acknowledged.

Every hop charges the host CPU according to the broker's
:class:`~repro.broker.profile.BrokerProfile` — routing cost per event,
send cost and heap allocation per destination copy.  Those constants are
the knobs the Figure 3 calibration turns.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from typing import (
    Any, Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.broker.epoch_table import ECHO, NEWER, STALE, EpochTable
from repro.broker.event import NBEvent, freeze_payload
from repro.broker.links import (
    Busy,
    ClientLink,
    ClusterDigest,
    ClusterInterestAdvert,
    ClusterLsa,
    Connect,
    ConnectAck,
    Disconnect,
    EventAck,
    EventDelivery,
    Heartbeat,
    HeartbeatAck,
    LinkStateAdvert,
    LinkStateDigest,
    LinkType,
    PeerEvent,
    PeerHeartbeat,
    Publish,
    SequenceRequest,
    SequencerPin,
    SslClientLink,
    SubAdvert,
    Subscribe,
    SubscribeAck,
    TcpClientLink,
    UdpClientLink,
    Unsubscribe,
    message_size,
)
from repro.broker.overload import (
    DEFAULT_RETRY_AFTER_S,
    NORMAL,
    OverloadController,
    ShedWatermarks,
)
from repro.broker.profile import BrokerProfile, NARADA_PROFILE
from repro.broker.reliable import OutboxTally, ReliableOutbox
from repro.broker.route_cache import NextHopGroups, RouteCache, RouteEntry
from repro.broker.topic import (
    PatternSummary,
    TopicTrie,
    validate_pattern,
    validate_topic,
)
from repro.obs.metrics import (
    COST_BUCKETS_S,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from repro.obs.trace import (
    TRACE_TOPIC_PREFIX,
    CompletedTrace,
    HopRecord,
    Tracer,
    internal_topic,
)
from repro.simnet.node import Host
from repro.simnet.packet import Address, Datagram
from repro.simnet.tcp import TcpConnection, TcpListener
from repro.simnet.udp import UdpSocket

#: Default broker ports.
PEER_PORT = 3044
UDP_PORT = 3045
TCP_PORT = 3046
SSL_PORT = 3047

#: Advert-dedup window size (floor).  Advert ids only need to be
#: remembered for as long as a flood can still echo them around the
#: broker graph, so a bounded LRU window is enough — an unbounded set
#: would grow forever on a long-running broker.  The effective cap
#: scales with mesh size (see :meth:`Broker.set_routes`): a flood's
#: echo lifetime grows with the reachable broker set.
SEEN_ADVERT_WINDOW = 8192

#: Per-reachable-broker contribution to the dedup window cap.
DEDUP_PER_BROKER = 128

#: Bound on cached (topic → sequencer) elections.
SEQUENCER_CACHE_MAX = 4096

#: Cap on the aggregated interest summary a cluster gateway exports.
#: Above this many distinct patterns, prefixes are collapsed (widened)
#: until the summary fits — see
#: :class:`repro.broker.topic.PatternSummary`.  Deliberately small:
#: a collapsed summary over-approximates, and a false positive only
#: costs one wasted inter-cluster forward that the entry gateway drops,
#: while a large budget delays collapse until per-cluster interest is
#: so wide that exact-list churn floods the overlay first.
INTEREST_SUMMARY_BUDGET = 16

#: Minimum spacing between two summary floods from one gateway.  Below
#: the collapse budget every subscription change alters the exact
#: summary, so a churn burst would otherwise export one overlay flood
#: per op — this coalesces the burst into at most one flood per
#: interval, trading up to that much added cross-cluster propagation
#: delay for a bounded overlay rate.
SUMMARY_REFRESH_MIN_INTERVAL_S = 0.25

#: Hysteresis on summary collapse: once a gateway has exported a
#: collapsed (widened) summary it keeps collapsing until the cluster's
#: interest shrinks below ``INTEREST_SUMMARY_BUDGET // 2``.  A cluster
#: sitting *at* the budget would otherwise flap between the exact
#: pattern list and the wildcard form on every churn transient, and
#: each flap makes every remote cluster install/withdraw the full diff
#: as per-pattern proxy floods — an advert storm out of one
#: subscription's worth of churn.
SUMMARY_COLLAPSE_RELEASE = 2

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

#: Locality pinning (geo mode): after this many sequenced events on a
#: topic, the current sequencer checks where the publishes actually
#: originate, and re-pins the topic to a broker contributing more than
#: SEQUENCER_PIN_MAJORITY of them.  The counting window resets after
#: every decision, so a transient publisher burst cannot bounce the pin
#: — it must dominate a full fresh window (hysteresis).
SEQUENCER_PIN_WINDOW = 64
SEQUENCER_PIN_MAJORITY = 0.6

#: Bound on each partition-park queue (ordered events awaiting an
#: unreachable sequencer; reliable events awaiting unreachable
#: interested brokers).  Oldest entries drop first under cap pressure,
#: mirroring the PR-8 bounded-outbox rule.
PARK_QUEUE_MAX = 2048


class _DedupWindow:
    """LRU dedup set with a hard size cap (least-recently-seen evicted).

    A hit *refreshes* the id's recency: an advert id still echoing
    around a large mesh stays pinned while one-shot ids age out, so cap
    pressure can no longer evict a live flood's id and re-admit its
    echo — which would re-flood it, an advert storm at exactly the mesh
    sizes the cluster tier targets.  ``evictions`` counts ids dropped
    under cap pressure (exposed as ``dedup_evictions``); a nonzero rate
    under steady load means the cap is undersized for the topology.
    """

    __slots__ = ("_seen", "cap", "evictions")

    def __init__(self, cap: int):
        self._seen: Dict[int, None] = {}
        self.cap = cap
        self.evictions = 0

    def __contains__(self, item: int) -> bool:
        return item in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def add(self, item: int) -> bool:
        """Record ``item``; False if it was already in the window (its
        recency is refreshed either way)."""
        if item in self._seen:
            # Dicts preserve insertion order: delete + reinsert moves the
            # id to the most-recently-seen end.
            del self._seen[item]
            self._seen[item] = None
            return False
        self._seen[item] = None
        if len(self._seen) > self.cap:
            del self._seen[next(iter(self._seen))]
            self.evictions += 1
        return True


class _ClientRecord:
    """Broker-side state for one connected client."""

    __slots__ = ("client_id", "link", "outbox", "last_seen")

    def __init__(
        self,
        client_id: str,
        link: ClientLink,
        outbox: Optional[ReliableOutbox],
        last_seen: float = 0.0,
    ):
        self.client_id = client_id
        self.link = link
        self.outbox = outbox
        self.last_seen = last_seen


class Broker:
    """One broker node bound to a simulated host."""

    def __init__(
        self,
        host: Host,
        broker_id: Optional[str] = None,
        profile: BrokerProfile = NARADA_PROFILE,
        reap_timeout_s: Optional[float] = None,
        link_state_enabled: bool = False,
        peer_heartbeat_interval_s: Optional[float] = None,
        peer_miss_limit: int = 3,
        tracer: Optional[Tracer] = None,
        cluster_id: Optional[str] = None,
        cluster_gateways: Tuple[str, ...] = (),
        overload_enabled: bool = True,
        shed_watermarks: Optional[ShedWatermarks] = None,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
        region: Optional[str] = None,
    ):
        if reap_timeout_s is not None and reap_timeout_s <= 0:
            raise ValueError(
                f"reap_timeout_s must be > 0, got {reap_timeout_s!r}"
            )
        self.host = host
        self.sim = host.sim
        self.broker_id = broker_id if broker_id is not None else host.name
        self.profile = profile
        if profile.gc is not None and host.cpu.gc_profile is None:
            host.cpu.gc_profile = profile.gc

        self._udp = UdpSocket(host, UDP_PORT)
        self._udp.on_receive(self._on_udp_message)
        self._tcp = TcpListener(host, TCP_PORT, on_connection=self._on_tcp_connection)
        self._ssl = TcpListener(host, SSL_PORT, on_connection=self._on_ssl_connection)
        self._peer_socket = UdpSocket(host, PEER_PORT)
        self._peer_socket.on_receive(self._on_peer_message)

        self._clients: Dict[str, _ClientRecord] = {}
        #: Pending and overflow-evicted reliable events across every
        #: client outbox this broker ever opened, kept by the outboxes.
        self._outboxes = OutboxTally()
        self._local_subs: TopicTrie[str] = TopicTrie()
        self._remote_interest: TopicTrie[str] = TopicTrie()
        self._peers: Dict[str, Address] = {}
        self._peer_by_address: Dict[Address, str] = {}
        self._sorted_peers: Tuple[str, ...] = ()
        self._routes: Dict[str, str] = {}
        self._routes_gen = 0
        self._seen_adverts = _DedupWindow(SEEN_ADVERT_WINDOW)
        self._sequences: Dict[str, int] = {}

        # Routing fast path: memoized per-topic fan-out plus cached
        # (topic → sequencer) elections per broker-set epoch.
        self.route_cache = RouteCache()
        self._broker_set_epoch = 0
        self._sequencer_epoch = -1
        self._sequencers: Dict[str, str] = {}

        # Stale-client reaping: a client whose link has gone dark past
        # ``reap_timeout_s`` is expired so its TopicTrie interest (and any
        # RouteCache entries depending on it) is released, not leaked.
        # Disabled by default — pure subscribers are silent unless their
        # client runs keepalive probes.  Checked every half timeout.
        self.reap_timeout_s = reap_timeout_s
        self._reap_timer = None
        self._closed = False
        if self.reap_timeout_s is not None:
            self._arm_reaper()

        # Autonomous mesh mode: peer heartbeats detect dead neighbours
        # without any central announcement, and flooded link-state adverts
        # let every broker compute its own next-hop table — the
        # BrokerNetwork stops pushing routes entirely.
        self.link_state_enabled = link_state_enabled
        self.peer_heartbeat_interval_s = peer_heartbeat_interval_s
        self.peer_miss_limit = peer_miss_limit
        self._peer_last_heard: Dict[str, float] = {}
        self._peer_hb_timer = None
        self._hb_tick = 0
        #: origin -> (epoch, neighbors, cost classes or None)
        self._lsdb = EpochTable(self.broker_id)
        self._recompute_pending = False
        if self.peer_heartbeat_interval_s is not None:
            self._arm_peer_heartbeat()

        # Cluster tier (opt-in).  ``cluster_id is None`` is the flat
        # mesh: every cluster branch below is skipped and behaviour is
        # bit-identical to the pre-cluster broker (the determinism suite
        # pins this).  When clustered, SubAdvert/LSA floods are scoped
        # to intra-cluster links and gateways run a second, overlay-level
        # control plane: ClusterLsa (gateway adjacency), ClusterInterest-
        # Advert (prefix-collapsed interest summaries), ClusterDigest
        # (anti-entropy for both).  Only the *active* gateway (lowest
        # live gateway id) imports foreign interest and exports events.
        self.cluster_id = cluster_id
        self.cluster_gateways = tuple(sorted(cluster_gateways))
        self._clustered = cluster_id is not None
        self.is_gateway = (
            self._clustered and self.broker_id in self.cluster_gateways
        )
        self._intercluster_peers: Set[str] = set()
        self._intra_sorted: Tuple[str, ...] = ()
        #: origin gateway -> (epoch, gateway neighbors, cluster_id,
        #: cost classes or None)
        self._gw_lsdb = EpochTable(self.broker_id)
        #: origin gateway -> (epoch, patterns, cluster_id); foreign *and*
        #: own-cluster summaries are tracked (standbys keep shadow copies
        #: for takeover), but only foreign ones are ever installed.  Our
        #: own summary is ``_last_summary`` at this table's ``epoch``.
        self._cluster_interest = EpochTable(self.broker_id)
        self._installed_foreign: Set[str] = set()
        self._proxied: Set[str] = set()
        #: Gateways only (standbys too, so takeover needs no rebuild):
        #: every local subscription and every member-advertised remote
        #: interest entry, refcounted — what the cluster summary is read
        #: from.  Foreign installs are other clusters' interest, never fed.
        self._member_interest: Optional[PatternSummary] = (
            PatternSummary() if self.is_gateway else None
        )
        self._last_summary: Optional[Tuple[str, ...]] = None
        self._summary_pending = False
        self._last_summary_flood_at = -SUMMARY_REFRESH_MIN_INTERVAL_S
        self._summary_collapsed = False
        self._active_gateway: Optional[str] = None

        # Geo federation (opt-in, PR 10).  ``region is None`` is the
        # pre-geo fabric: every branch below is skipped, LSAs carry no
        # costs, Dijkstra weights stay uniform, and no park queue ever
        # holds an event — the determinism suite pins bit-identity.
        # With a region set: link-state adverts carry per-adjacency
        # cost classes (quantized from configured latency), ordered
        # topics pin their sequencer near the publisher majority, a
        # minority-side partition parks ordered topics instead of
        # forking sequence numbers, and reliable cross-region traffic
        # queues until the partition heals.
        self.region = region
        self._geo = region is not None
        self._advertised_costs: Dict[str, int] = {}
        #: High-watermark of every broker ever seen reachable — the
        #: "stable set" a partition minority measures itself against.
        self._stable_brokers: Set[str] = set()
        self._stable_sequencers: Dict[str, str] = {}
        self._stable_seq_gen = -1  # validated against len(_stable_brokers)
        #: topic -> (pin epoch, pinned broker)
        self._sequencer_pins: Dict[str, Tuple[int, str]] = {}
        #: topic -> origin broker -> sequenced count (current window)
        self._pin_counts: Dict[str, Dict[str, int]] = {}
        self._parked_ordered: Deque[Tuple[NBEvent, Optional[str]]] = deque()
        self._wan_parked: Deque[Tuple[NBEvent, FrozenSet[str]]] = deque()
        #: Reliable events recently *sent* toward remote targets, kept
        #: for one peer-eviction window: a regional cut blackholes the
        #: wire silently, so anything forwarded between the physical cut
        #: and the heartbeat eviction would otherwise be lost.  When a
        #: route disappears, the overlapping tail of this buffer is
        #: re-parked (receiver-side event-id dedup absorbs the replays
        #: for events that did arrive).
        self._wan_recent: Deque[Tuple[NBEvent, FrozenSet[str], float]] = deque()
        self._park_drain_pending = False

        # Overload protection (opt-out).  The controller is a pure
        # observer below its watermarks: pressure is read inline at the
        # dissemination/admission decision points through side-effect-
        # free signal reads (no timers, no RNG), so an enabled-but-idle
        # controller leaves the simulation bit-identical to a run with
        # ``overload_enabled=False`` — the determinism suite pins this.
        self.overload: Optional[OverloadController] = (
            OverloadController(
                (
                    lambda: self.host.cpu.queue_depth,
                    lambda: self.host.nic.queued_bytes,
                    self._outbox_depth,
                ),
                shed_watermarks
                if shed_watermarks is not None
                else ShedWatermarks(),
                retry_after_s=retry_after_s,
            )
            if overload_enabled
            else None
        )

        # Statistics: plain integer attributes mutated on the hot paths,
        # all registered (bound) in the metrics registry below so the
        # registry is the single source of truth for snapshots.
        self.events_routed = 0
        self.events_delivered = 0
        self.events_forwarded = 0
        self.control_messages = 0
        self.heartbeats_received = 0
        self.clients_reaped = 0
        self.outbox_abandons = 0
        self.peer_heartbeats_received = 0
        self.peers_evicted = 0
        self.lsas_originated = 0
        self.lsas_received = 0
        self.lsas_deduped = 0
        self.lsas_stale = 0
        self.routing_epochs = 0
        self.sequencer_changes = 0
        self.traces_started = 0
        self.traces_completed = 0
        self.traces_suppressed = 0
        self.adverts_aggregated = 0
        self.cluster_lsas_scoped = 0
        self.intercluster_hops = 0
        self.gateway_takeovers = 0
        self.sequencer_pins_set = 0
        self.ordered_parked = 0
        self.ordered_park_drained = 0
        self.ordered_park_drops = 0
        self.wan_parked = 0
        self.wan_park_drained = 0
        self.wan_park_drops = 0
        self.wan_replays = 0
        self.cost_reoriginations = 0
        self.last_route_change_at = -1.0
        self._last_sequencers: Dict[str, str] = {}

        # Observability: sampled end-to-end tracing (shared tracer =
        # collection-wide sampling budget) and the metrics registry.
        self.tracer = tracer
        self.metrics = MetricsRegistry()
        for counter_name in (
            "events_routed",
            "events_delivered",
            "events_forwarded",
            "control_messages",
            "heartbeats_received",
            "clients_reaped",
            "outbox_abandons",
            "peer_heartbeats_received",
            "peers_evicted",
            "lsas_originated",
            "lsas_received",
            "lsas_deduped",
            "lsas_stale",
            "routing_epochs",
            "sequencer_changes",
            "traces_started",
            "traces_completed",
            "traces_suppressed",
            "adverts_aggregated",
            "cluster_lsas_scoped",
            "intercluster_hops",
            "gateway_takeovers",
            "sequencer_pins_set",
            "ordered_parked",
            "ordered_park_drained",
            "ordered_park_drops",
            "wan_parked",
            "wan_park_drained",
            "wan_park_drops",
            "wan_replays",
            "cost_reoriginations",
        ):
            self.metrics.expose(
                counter_name, lambda name=counter_name: getattr(self, name)
            )
        self.metrics.expose("route_cache_hits", lambda: self.route_cache.hits)
        self.metrics.expose(
            "route_cache_misses", lambda: self.route_cache.misses
        )
        self.metrics.expose(
            "route_cache_invalidations",
            lambda: self.route_cache.invalidations,
        )
        self.metrics.expose(
            "route_cache_entries", lambda: len(self.route_cache)
        )
        self.metrics.expose(
            "dedup_evictions", lambda: self._seen_adverts.evictions
        )
        self.metrics.expose(
            "local_subscriptions", lambda: len(self._local_subs)
        )
        self.metrics.expose(
            "remote_interest", lambda: len(self._remote_interest)
        )
        self.metrics.expose("outbox_depth", self._outbox_depth)
        self.metrics.expose("outbox_overflows", self._outbox_overflows)
        self.metrics.expose("overload_state", self._overload_state)
        for overload_name in (
            "overload_entries",
            "admissions_refused",
            "events_shed",
            "events_shed_control",
            "events_shed_audio",
            "events_shed_video",
            "events_shed_bulk",
        ):
            self.metrics.expose(
                overload_name,
                lambda name=overload_name: (
                    getattr(self.overload, name)
                    if self.overload is not None
                    else 0
                ),
            )
        self.delivery_latency = self.metrics.histogram(
            "delivery_latency_s", LATENCY_BUCKETS_S
        )
        self.routing_cost = self.metrics.histogram(
            "routing_cost_s", COST_BUCKETS_S
        )

    # --------------------------------------------------------------- info

    @property
    def udp_address(self) -> Address:
        return self._udp.local_address

    @property
    def tcp_address(self) -> Address:
        return self._tcp.local_address

    @property
    def ssl_address(self) -> Address:
        return self._ssl.local_address

    @property
    def peer_address(self) -> Address:
        return self._peer_socket.local_address

    def client_count(self) -> int:
        return len(self._clients)

    @property
    def is_active_gateway(self) -> bool:
        """True while this broker is its cluster's elected active gateway.

        Side-effect free (reads the election result maintained by peer
        liveness): the telemetry plane uses it to keep exactly one
        cluster-health aggregator publishing per cluster, with standby
        gateways shadowing silently until a takeover (DESIGN.md §11).
        """
        return (
            self._clustered
            and self.is_gateway
            and not self._closed
            and self._active_gateway == self.broker_id
        )

    def client_ids(self) -> List[str]:
        return sorted(self._clients)

    def known_brokers(self) -> List[str]:
        """Every broker reachable from here (including self)."""
        return sorted(set(self._routes) | {self.broker_id})

    def has_local_subscription(self, pattern: str, client_id: str) -> bool:
        return pattern in self._local_subs.patterns_for(client_id)

    def statistics(self) -> Dict[str, int]:
        """The broker's statistics block, generated from the metrics
        registry — every registered counter and gauge, by name.  Nothing
        is hand-listed here, so a counter added to the registry can never
        silently drift out of the statistics/monitoring surface."""
        return self.metrics.counters_snapshot()

    def _outbox_depth(self) -> int:
        """Reliable events pending across every client outbox (gauge)."""
        return self._outboxes.pending

    def _outbox_overflows(self) -> int:
        """Bounded-outbox overflow evictions, live and closed (gauge)."""
        return self._outboxes.overflows

    def _overload_state(self) -> int:
        """Current overload state (gauge): 0 NORMAL, 1 DEGRADED, 2
        SHEDDING.  Reading refreshes the lazy state machine, so monitor
        samples observe recovery without the controller owning a timer."""
        if self.overload is None:
            return NORMAL
        return self.overload.refresh(self.sim.now)

    # --------------------------------------------------- peer provisioning

    def add_peer(
        self, peer_id: str, peer_address: Address, intercluster: bool = False
    ) -> None:
        """Register a directly-connected peer broker (both directions are
        registered by :class:`repro.broker.network.BrokerNetwork`).

        ``intercluster=True`` marks a gateway-to-gateway link between
        clusters: no member LSA, per-topic SubAdvert, or raw
        subscription sync ever crosses it — the gateway overlay
        reconciles through :class:`~repro.broker.links.ClusterDigest`
        exchange instead.
        """
        previous = self._peers.get(peer_id)
        if previous is not None:
            self._peer_by_address.pop(previous, None)
        self._peers[peer_id] = peer_address
        self._peer_by_address[peer_address] = peer_id
        if intercluster:
            self._intercluster_peers.add(peer_id)
        else:
            self._intercluster_peers.discard(peer_id)
        self._peer_last_heard[peer_id] = self.sim.now
        self._peers_changed()
        if not self.link_state_enabled:
            return
        cpu, cost = self.host.cpu, self.profile.control_cost_s
        if self._clustered and intercluster:
            # Inter-cluster link-up: only the gateway tier changed.
            self._originate_gw_lsa()
            cpu.execute(
                cost, self._send_peer, peer_id, self._make_cluster_digest()
            )
            return
        # A link came up (first wiring, or a partition healed): flood
        # our new adjacency, reconcile databases via digest exchange,
        # and re-offer known interest over the new edge so the other
        # side routes events toward us again.
        self._originate_lsa()
        cpu.execute(cost, self._send_peer, peer_id, self._make_digest())
        self._sync_subscriptions_to_peer(peer_id)
        if (
            self._clustered
            and self.is_gateway
            and peer_id in self.cluster_gateways
        ):
            # A co-gateway link is also a gateway-overlay edge.
            self._originate_gw_lsa()
            cpu.execute(
                cost, self._send_peer, peer_id, self._make_cluster_digest()
            )

    def remove_peer(self, peer_id: str) -> None:
        address = self._peers.pop(peer_id, None)
        if address is not None:
            self._peer_by_address.pop(address, None)
        was_intercluster = peer_id in self._intercluster_peers
        self._intercluster_peers.discard(peer_id)
        self._peer_last_heard.pop(peer_id, None)
        self._peers_changed()
        if not self.link_state_enabled:
            return
        if was_intercluster:
            self._originate_gw_lsa()
            return
        self._originate_lsa()
        if (
            self._clustered
            and self.is_gateway
            and peer_id in self.cluster_gateways
        ):
            self._originate_gw_lsa()

    def has_peer(self, peer_id: str) -> bool:
        return peer_id in self._peers

    def _peers_changed(self) -> None:
        self._sorted_peers = tuple(sorted(self._peers))
        if self._clustered:
            self._intra_sorted = tuple(
                peer
                for peer in self._sorted_peers
                if peer not in self._intercluster_peers
            )
        else:
            self._intra_sorted = self._sorted_peers
        self._routes_gen += 1

    def set_routes(self, routes: Dict[str, str]) -> None:
        """Install next-hop routing table: destination broker -> peer id.

        Remote interest advertised by brokers that are no longer
        reachable is purged here — a dead broker can never withdraw its
        own adverts, so this is where its subscription state is released
        instead of leaking forever.
        """
        if routes != self._routes:
            self.routing_epochs += 1
            self.last_route_change_at = self.sim.now
        self._routes = dict(routes)
        self._routes_gen += 1
        self._broker_set_epoch += 1
        # The dedup window must outlive a flood's echo lifetime, which
        # grows with the reachable set: resize relative to mesh size.
        self._seen_adverts.cap = max(
            SEEN_ADVERT_WINDOW, DEDUP_PER_BROKER * (len(self._routes) + 1)
        )
        reachable = set(self._routes)
        reachable.add(self.broker_id)
        if self._geo:
            # Geo mode retains interest advertised by currently-
            # unreachable brokers: a cut-off region is expected back, and
            # the WAN park queue needs to know exactly which interested
            # brokers are owed a reliable event when the partition heals.
            self._stable_brokers |= reachable
            self._replay_wan_recent(reachable)
            if self._parked_ordered or self._wan_parked:
                self._schedule_park_drain()
            return
        for origin in [
            o for o in set(self._remote_interest.values()) if o not in reachable
        ]:
            member = (
                self._member_interest is not None
                and origin not in self._installed_foreign
            )
            for pattern in self._remote_interest.patterns_for(origin):
                self._remote_interest.remove(pattern, origin)
                if member:
                    self._member_interest.remove(pattern)

    def sync_subscriptions_to_peers(self) -> None:
        """(Re)advertise all known interest — used when topology changes."""
        for pattern in self._local_subs.all_patterns():
            self._flood_advert(
                SubAdvert(origin_broker=self.broker_id, pattern=pattern, add=True),
                skip_peer=None,
            )
        for origin in set(self._remote_interest.values()):
            if origin in self._installed_foreign:
                continue  # foreign installs never leave this gateway
            for pattern in self._remote_interest.patterns_for(origin):
                self._flood_advert(
                    SubAdvert(origin_broker=origin, pattern=pattern, add=True),
                    skip_peer=None,
                )

    def _sync_subscriptions_to_peer(self, peer_id: str) -> None:
        """Offer all known interest over one (newly up) peer link.

        The receiver re-floods anything it did not already know with
        ``skip_peer`` set to us, which is how subscription state crosses
        a healed partition without a full mesh-wide re-flood.

        Clustered: foreign-gateway installs are *not* offered (members
        must route foreign-bound events through the gateway's proxy
        adverts, not toward gateway ids they have no routes for);
        instead the proxied pattern set is offered under our own origin.
        """
        cpu, cost = self.host.cpu, self.profile.control_cost_s
        local_patterns = self._local_subs.all_patterns()
        for pattern in local_patterns:
            advert = SubAdvert(
                origin_broker=self.broker_id, pattern=pattern, add=True
            )
            self._seen_adverts.add(advert.advert_id)
            cpu.execute(cost, self._send_peer, peer_id, advert)
        for origin in sorted(set(self._remote_interest.values())):
            if origin in self._installed_foreign:
                continue
            for pattern in self._remote_interest.patterns_for(origin):
                advert = SubAdvert(
                    origin_broker=origin, pattern=pattern, add=True
                )
                self._seen_adverts.add(advert.advert_id)
                cpu.execute(cost, self._send_peer, peer_id, advert)
        for pattern in sorted(self._proxied - set(local_patterns)):
            advert = SubAdvert(
                origin_broker=self.broker_id, pattern=pattern, add=True
            )
            self._seen_adverts.add(advert.advert_id)
            cpu.execute(cost, self._send_peer, peer_id, advert)

    # --------------------------------------------------------- client I/O

    def _on_udp_message(self, payload: Any, src: Address, datagram: Datagram) -> None:
        self._dispatch_client_message(payload, src, None)

    def _on_tcp_connection(self, connection: TcpConnection) -> None:
        connection.on_message = (
            lambda msg, size, conn: self._dispatch_client_message(msg, None, conn)
        )

    def _on_ssl_connection(self, connection: TcpConnection) -> None:
        connection.on_message = (
            lambda msg, size, conn: self._dispatch_client_message(
                msg, None, conn, ssl=True
            )
        )

    def _dispatch_client_message(
        self,
        message: Any,
        src: Optional[Address],
        connection: Optional[TcpConnection],
        ssl: bool = False,
    ) -> None:
        client_id = getattr(message, "client_id", None)
        if client_id is not None:
            record = self._clients.get(client_id)
            if record is not None:
                record.last_seen = self.sim.now
        if isinstance(message, Publish):
            self._on_publish(message)
        elif isinstance(message, EventAck):
            record = self._clients.get(message.client_id)
            if record is not None and record.outbox is not None:
                record.outbox.ack(message.event_id)
        elif isinstance(message, Heartbeat):
            self._on_heartbeat(message)
        elif isinstance(message, Connect):
            self._on_connect(message, src, connection, ssl)
        elif isinstance(message, Subscribe):
            self._on_subscribe(message)
        elif isinstance(message, Unsubscribe):
            self._on_unsubscribe(message)
        elif isinstance(message, Disconnect):
            self._drop_client(message.client_id)

    def _on_connect(
        self,
        message: Connect,
        src: Optional[Address],
        connection: Optional[TcpConnection],
        ssl: bool,
    ) -> None:
        self.control_messages += 1
        client_id = message.client_id
        if self.overload is not None and client_id not in self._clients:
            # Admission control: a SHEDDING broker refuses *new* clients
            # (an established client reconnecting keeps its session) with
            # a retry-after hint instead of taking on more fan-out work.
            admitted, retry_after = self.overload.admit(self.sim.now)
            if not admitted:
                self._refuse_admission(
                    message, src, connection, ssl, retry_after
                )
                return
        envelope = self.profile.envelope_bytes
        if connection is not None:
            if ssl:
                link: ClientLink = SslClientLink(
                    client_id, envelope, connection, self.host
                )
            else:
                link = TcpClientLink(client_id, envelope, connection)
            outbox = None  # TCP/SSL links are already reliable
        else:
            reply_to = message.reply_to if message.reply_to is not None else src
            if reply_to is None:
                return
            link = UdpClientLink(
                client_id, envelope, self._udp, reply_to, kind=message.link_type
            )
            outbox = ReliableOutbox(
                self.sim,
                lambda event, l=link: l.send(EventDelivery(event)),
                on_abandon=lambda event, cid=client_id: self._on_outbox_abandon(
                    cid
                ),
                tally=self._outboxes,
            )
        previous = self._clients.get(client_id)
        if previous is not None and previous.outbox is not None:
            previous.outbox.close()
        self._clients[client_id] = _ClientRecord(
            client_id, link, outbox, last_seen=self.sim.now
        )
        self.host.cpu.execute(
            self.profile.control_cost_s,
            link.send,
            ConnectAck(client_id=client_id, broker_id=self.broker_id),
        )

    def _refuse_admission(
        self,
        message: Connect,
        src: Optional[Address],
        connection: Optional[TcpConnection],
        ssl: bool,
        retry_after_s: float,
    ) -> None:
        """Answer a refused connect with ``Busy`` over a throwaway link
        (no client record is created — the whole point is not to)."""
        client_id = message.client_id
        envelope = self.profile.envelope_bytes
        if connection is not None:
            if ssl:
                link: ClientLink = SslClientLink(
                    client_id, envelope, connection, self.host
                )
            else:
                link = TcpClientLink(client_id, envelope, connection)
        else:
            reply_to = message.reply_to if message.reply_to is not None else src
            if reply_to is None:
                return
            link = UdpClientLink(
                client_id, envelope, self._udp, reply_to, kind=message.link_type
            )
        self.host.cpu.execute(
            self.profile.control_cost_s,
            link.send,
            Busy(
                client_id=client_id,
                operation="connect",
                retry_after_s=retry_after_s,
            ),
        )

    def _on_subscribe(self, message: Subscribe) -> None:
        self.control_messages += 1
        record = self._clients.get(message.client_id)
        if record is None:
            return
        if self.overload is not None:
            admitted, retry_after = self.overload.admit(self.sim.now)
            if not admitted:
                self.host.cpu.execute(
                    self.profile.control_cost_s,
                    record.link.send,
                    Busy(
                        client_id=message.client_id,
                        operation="subscribe",
                        retry_after_s=retry_after,
                    ),
                )
                return
        pattern = validate_pattern(message.pattern)
        had_interest = self._has_local_interest(pattern)
        if (
            self._local_subs.add(pattern, message.client_id)
            and self._member_interest is not None
        ):
            self._member_interest.add(pattern)
        # A pattern already advertised as a gateway proxy needs no flood:
        # the mesh already routes it here (empty in flat mode).
        if not had_interest and pattern not in self._proxied:
            self._flood_advert(
                SubAdvert(origin_broker=self.broker_id, pattern=pattern, add=True),
                skip_peer=None,
            )
        self._schedule_summary_refresh()
        self.host.cpu.execute(
            self.profile.control_cost_s,
            record.link.send,
            SubscribeAck(client_id=message.client_id, pattern=pattern),
        )

    def _on_unsubscribe(self, message: Unsubscribe) -> None:
        self.control_messages += 1
        if not self._local_subs.remove(message.pattern, message.client_id):
            # Never held (clients send Unsubscribe unconditionally):
            # nothing changed, so nothing to withdraw or re-summarize.
            return
        if self._member_interest is not None:
            self._member_interest.remove(message.pattern)
        if (
            not self._has_local_interest(message.pattern)
            and message.pattern not in self._proxied
        ):
            self._flood_advert(
                SubAdvert(
                    origin_broker=self.broker_id, pattern=message.pattern, add=False
                ),
                skip_peer=None,
            )
        self._schedule_summary_refresh()

    def _on_heartbeat(self, message: Heartbeat) -> None:
        self.heartbeats_received += 1
        record = self._clients.get(message.client_id)
        if record is None:
            return  # reaped or never connected: silence makes it fail over
        self.host.cpu.execute(
            self.profile.control_cost_s,
            record.link.send,
            HeartbeatAck(client_id=message.client_id, broker_id=self.broker_id),
        )

    def _on_outbox_abandon(self, client_id: str) -> None:
        """A reliable delivery exhausted its retries: the client's link is
        dead.  Drop the client so its interest is released instead of
        retrying every subsequent event into the void."""
        self.outbox_abandons += 1
        self._drop_client(client_id)

    def _arm_reaper(self) -> None:
        self._reap_timer = self.sim.schedule(
            self.reap_timeout_s / 2, self._reap_stale_clients
        )

    def _reap_stale_clients(self) -> None:
        self._reap_timer = None
        if self._closed:
            return
        deadline = self.sim.now - self.reap_timeout_s
        for client_id in [
            cid for cid, rec in self._clients.items() if rec.last_seen < deadline
        ]:
            self.clients_reaped += 1
            self._drop_client(client_id)
        self._arm_reaper()

    def _drop_client(self, client_id: str) -> None:
        record = self._clients.pop(client_id, None)
        if record is None:
            return
        if record.outbox is not None:
            record.outbox.close()
        for pattern in self._local_subs.patterns_for(client_id):
            self._local_subs.remove(pattern, client_id)
            if self._member_interest is not None:
                self._member_interest.remove(pattern)
            if (
                not self._has_local_interest(pattern)
                and pattern not in self._proxied
            ):
                self._flood_advert(
                    SubAdvert(
                        origin_broker=self.broker_id, pattern=pattern, add=False
                    ),
                    skip_peer=None,
                )
        self._schedule_summary_refresh()
        record.link.close()

    def _has_local_interest(self, pattern: str) -> bool:
        return self._local_subs.has_pattern(pattern)

    # ----------------------------------------------------------- publish

    def _on_publish(self, message: Publish) -> None:
        event = message.event
        if self.tracer is not None and event.trace is None:
            # Trace traffic is BULK-class: when the overload controller
            # is already shedding that class, don't produce it either.
            # The plain state read (no refresh) is NORMAL for the whole
            # run whenever the watermarks never trip, so sampling stays
            # bit-identical to an unprotected run in that regime.
            if self.overload is not None and self.overload.state != NORMAL:
                self.traces_suppressed += 1
            elif self.tracer.sample(event, self.sim.now) is not None:
                self.traces_started += 1
        hop = self._begin_hop(event)
        if event.ordered:
            self._sequence_then_disseminate(
                event, exclude=message.client_id, hop=hop
            )
        elif hop is not None:
            self.host.cpu.execute_traced(
                self.profile.route_cost_s,
                self._disseminate,
                event,
                message.client_id,
                hop=hop,
            )
        else:
            self.host.cpu.execute(
                self.profile.route_cost_s,
                self._disseminate,
                event,
                message.client_id,
            )

    def _begin_hop(self, event: NBEvent) -> Optional[HopRecord]:
        """Open a hop record for a traced event arriving at this broker."""
        if event.trace is None:
            return None
        return event.trace.begin_hop(self.broker_id, "broker", self.sim.now)

    def _sequence_then_disseminate(
        self,
        event: NBEvent,
        exclude: Optional[str],
        hop: Optional[HopRecord] = None,
    ) -> None:
        sequencer = self.sequencer_for(event.topic)
        if self._geo:
            if sequencer != self.broker_id and sequencer not in self._routes:
                # A pinned sequencer we cannot currently reach: never
                # fall back to a local election while the pin holds —
                # that is exactly the sequence-number fork to avoid.
                self._park_ordered(event, exclude)
                return
            if (
                self._in_minority()
                and self._stable_sequencer_for(event.topic) != sequencer
            ):
                # Minority side of a partition: the stable set elects a
                # broker beyond the cut, who is still sequencing for the
                # majority.  Park instead of forking.
                self._park_ordered(event, exclude)
                return
        if sequencer == self.broker_id:
            if self._geo:
                self._note_sequenced(event.topic, self.broker_id)
            event.sequence = self._sequences.get(event.topic, 0)
            event.sequenced_by = self.broker_id
            self._sequences[event.topic] = event.sequence + 1
            if hop is not None:
                self.host.cpu.execute_traced(
                    self.profile.route_cost_s,
                    self._disseminate, event, exclude, hop=hop,
                )
            else:
                self.host.cpu.execute(
                    self.profile.route_cost_s, self._disseminate, event, exclude
                )
        else:
            request = SequenceRequest(event=event, origin_broker=self.broker_id)
            if hop is not None:
                hop.link = f"seq:{sequencer}"
                self.host.cpu.execute_traced(
                    self.profile.forward_cost_s,
                    self._send_toward_stamped,
                    sequencer, request, hop,
                    hop=hop,
                )
            else:
                self.host.cpu.execute(
                    self.profile.forward_cost_s,
                    self._send_peer_toward,
                    sequencer,
                    request,
                )

    def sequencer_for(self, topic: str) -> str:
        """Deterministic sequencer election for an ordered topic.

        The election only depends on the topic and the known-broker set
        (plus any locality pin in geo mode), so it is cached per
        (topic, routing generation).  Validating against ``_routes_gen``
        rather than the coarser broker-set epoch closes the heal window:
        the generation bumps the instant a peer link comes back
        (``add_peer`` → ``_peers_changed``), before the debounced route
        recompute runs, so a cached pre-partition election can never be
        served after the topology visibly changed.
        """
        if self._sequencer_epoch != self._routes_gen:
            self._sequencers.clear()
            self._sequencer_epoch = self._routes_gen
        sequencer = self._sequencers.get(topic)
        if sequencer is None:
            if self._geo:
                pin = self._sequencer_pins.get(topic)
                if pin is not None and (
                    pin[1] == self.broker_id or pin[1] in self._routes
                ):
                    sequencer = pin[1]
            if sequencer is None:
                sequencer = self._hash_elect(topic, self.known_brokers())
            self._sequencers[topic] = sequencer
            if len(self._sequencers) > SEQUENCER_CACHE_MAX:
                del self._sequencers[next(iter(self._sequencers))]
            # Track re-elections across epochs: a change means in-flight
            # ordered streams restarted their sequence expectations.
            previous = self._last_sequencers.get(topic)
            if previous is not None and previous != sequencer:
                self.sequencer_changes += 1
            self._last_sequencers[topic] = sequencer
            if len(self._last_sequencers) > SEQUENCER_CACHE_MAX:
                del self._last_sequencers[next(iter(self._last_sequencers))]
        return sequencer

    def _hash_elect(self, topic: str, candidates: List[str]) -> str:
        if self._clustered and self.is_gateway:
            # Gateways also know foreign gateways; elections must stay
            # cluster-local so every member of the cluster (gateway or
            # not) derives the same sequencer.  Ordering domains are per
            # cluster — see DESIGN.md.
            foreign = {
                origin
                for origin, (_, _, cluster, _) in self._gw_lsdb.items()
                if cluster != self.cluster_id
            }
            candidates = [b for b in candidates if b not in foreign]
        return min(
            candidates,
            key=lambda broker: hashlib.sha256(
                f"{topic}|{broker}".encode()
            ).hexdigest(),
        )

    # ------------------------------------- geo partition survival (PR 10)

    def _in_minority(self) -> bool:
        """True when we can reach at most half of the stable broker set:
        the conservative side of a partition, which must park ordered
        topics rather than fork their sequence numbers."""
        return (len(self._routes) + 1) * 2 <= len(self._stable_brokers)

    def _stable_sequencer_for(self, topic: str) -> str:
        """The sequencer the *full* (high-watermark) broker set elects —
        what the unreachable majority is presumed to still be using."""
        pin = self._sequencer_pins.get(topic)
        if pin is not None:
            return pin[1]
        if self._stable_seq_gen != len(self._stable_brokers):
            self._stable_sequencers.clear()
            self._stable_seq_gen = len(self._stable_brokers)
        sequencer = self._stable_sequencers.get(topic)
        if sequencer is None:
            candidates = sorted(self._stable_brokers | {self.broker_id})
            sequencer = self._hash_elect(topic, candidates)
            self._stable_sequencers[topic] = sequencer
            if len(self._stable_sequencers) > SEQUENCER_CACHE_MAX:
                del self._stable_sequencers[
                    next(iter(self._stable_sequencers))
                ]
        return sequencer

    def _park_ordered(self, event: NBEvent, exclude: Optional[str]) -> None:
        self.ordered_parked += 1
        self._parked_ordered.append((event, exclude))
        if len(self._parked_ordered) > PARK_QUEUE_MAX:
            self._parked_ordered.popleft()
            self.ordered_park_drops += 1

    def _park_wan(self, event: NBEvent, missing: FrozenSet[str]) -> None:
        self.wan_parked += 1
        self._wan_parked.append((event, missing))
        if len(self._wan_parked) > PARK_QUEUE_MAX:
            self._wan_parked.popleft()
            self.wan_park_drops += 1

    def _wan_recent_window(self) -> float:
        """How long a sent event stays replayable: the worst-case lag
        between a physical cut and heartbeat eviction of the dead peer,
        plus slack for the route recompute that follows."""
        if self.peer_heartbeat_interval_s is not None:
            return (self.peer_miss_limit + 2) * self.peer_heartbeat_interval_s
        return 2.0

    def _note_wan_sent(self, event: NBEvent, targets: FrozenSet[str]) -> None:
        horizon = self.sim.now - self._wan_recent_window()
        while self._wan_recent and self._wan_recent[0][2] < horizon:
            self._wan_recent.popleft()
        self._wan_recent.append((event, targets, self.sim.now))
        if len(self._wan_recent) > PARK_QUEUE_MAX:
            self._wan_recent.popleft()

    def _replay_wan_recent(self, reachable: Set[str]) -> None:
        """Re-park recently forwarded reliable events whose targets just
        fell out of the route table — they were sent into the window
        between the physical cut and heartbeat eviction, so the wire
        silently ate them.  Receiver-side event-id dedup absorbs the
        replays for copies that did arrive before the cut."""
        if not self._wan_recent:
            return
        horizon = self.sim.now - self._wan_recent_window()
        kept: Deque[Tuple[NBEvent, FrozenSet[str], float]] = deque()
        for event, targets, at in self._wan_recent:
            if at < horizon:
                continue
            lost = targets - reachable
            if lost:
                self.wan_replays += 1
                self._park_wan(event, frozenset(lost))
            remaining = targets & reachable
            if remaining:
                kept.append((event, remaining, at))
        self._wan_recent = kept

    def _schedule_park_drain(self) -> None:
        if self._park_drain_pending:
            return
        self._park_drain_pending = True
        self.sim.schedule(0.0, self._run_park_drain)

    def _run_park_drain(self) -> None:
        self._park_drain_pending = False
        if self._closed:
            return
        self._drain_parked_ordered()
        self._drain_wan_parked()

    def _drain_parked_ordered(self) -> None:
        """Re-run parked ordered publishes through sequencing.  Events
        whose sequencer is still beyond the cut simply re-park — the
        drain is only triggered by topology changes, so this cannot
        spin."""
        if not self._parked_ordered:
            return
        pending = list(self._parked_ordered)
        self._parked_ordered.clear()
        for event, exclude in pending:
            self.ordered_park_drained += 1
            self._sequence_then_disseminate(event, exclude)

    def _drain_wan_parked(self) -> None:
        """Forward parked reliable events to interested brokers that
        became reachable again; remainders re-park for a later heal."""
        if not self._wan_parked:
            return
        reachable = set(self._routes)
        pending = list(self._wan_parked)
        self._wan_parked.clear()
        for event, missing in pending:
            targets = missing & reachable
            if targets:
                self.wan_park_drained += 1
                self._forward_to_targets(event, set(targets))
                missing = missing - targets
            if missing:
                self._wan_parked.append((event, frozenset(missing)))

    def _note_sequenced(self, topic: str, origin: str) -> None:
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
        if (
            leader is None
            or leader == self.broker_id
            or leader not in self._routes
        ):
            return
        current = self._sequencer_pins.get(topic)
        pin = SequencerPin(
            topic=topic,
            broker=leader,
            epoch=(current[0] if current is not None else 0) + 1,
            next_sequence=self._sequences.get(topic, 0),
            origin_broker=self.broker_id,
        )
        self._apply_pin(pin)
        self._flood_advert(pin, skip_peer=None)

    def _apply_pin(self, pin: SequencerPin) -> None:
        self._sequencer_pins[pin.topic] = (pin.epoch, pin.broker)
        self.sequencer_pins_set += 1
        self._sequencers.pop(pin.topic, None)
        self._stable_sequencers.pop(pin.topic, None)
        if pin.broker == self.broker_id:
            # Sequence-counter handoff: numbering continues where the
            # previous sequencer left off instead of restarting at 0.
            if pin.next_sequence > self._sequences.get(pin.topic, 0):
                self._sequences[pin.topic] = pin.next_sequence

    def _on_sequencer_pin(
        self, pin: SequencerPin, from_peer: Optional[str]
    ) -> None:
        if not self._seen_adverts.add(pin.advert_id):
            return
        self.control_messages += 1
        if not self._geo:
            return  # geo-unaware brokers never honor pins
        current = self._sequencer_pins.get(pin.topic)
        if current is not None:
            if pin.epoch < current[0]:
                return
            if pin.epoch == current[0] and pin.broker >= current[1]:
                return  # tie: lexicographically smaller broker wins
        self._apply_pin(pin)
        self._flood_advert(pin, skip_peer=from_peer)

    # ------------------------------------------------- routing fast path

    def routing_generation(self) -> Tuple[int, int, int]:
        """The generation triple cached route entries are validated
        against: any subscription, advert, or route-table change bumps
        one component and lazily invalidates stale entries."""
        return (
            self._local_subs.generation,
            self._remote_interest.generation,
            self._routes_gen,
        )

    def resolve_route(self, topic: str) -> RouteEntry:
        """Resolve the full fan-out for ``topic`` (cached when fresh)."""
        generation = self.routing_generation()
        entry = self.route_cache.lookup(topic, generation)
        if entry is not None:
            return entry
        local = tuple(sorted(self._local_subs.match(topic)))
        remote = self._remote_interest.match(topic)
        remote.discard(self.broker_id)
        if self._clustered and self.is_gateway:
            # Tier partition for gateway re-export: foreign-gateway
            # targets (installed aggregated interest) vs own-cluster
            # members.  Standbys install nothing, so inter is empty and
            # intra degenerates to the full remote set.
            inter = frozenset(
                origin for origin in remote if origin in self._installed_foreign
            )
            intra: Optional[FrozenSet[str]] = frozenset(remote) - inter
        else:
            inter = intra = None
        entry = RouteEntry(
            generation, local, frozenset(remote),
            self._compute_groups(remote),
            intra_targets=intra,
            inter_targets=inter,
        )
        self.route_cache.store(topic, entry)
        return entry

    def _compute_groups(self, targets: Set[str]) -> NextHopGroups:
        """Group target brokers by next hop, in deterministic send order."""
        grouped: Dict[str, Set[str]] = {}
        for target in targets:
            next_hop = self._routes.get(target)
            if next_hop is None:
                continue  # unreachable broker; drop silently
            grouped.setdefault(next_hop, set()).add(target)
        # Next hops are (normally) direct peers, so the cached sorted
        # peer list gives their order without a per-call sort.
        ordered = [peer for peer in self._sorted_peers if peer in grouped]
        if len(ordered) != len(grouped):
            ordered = sorted(grouped)
        return tuple((hop, frozenset(grouped[hop])) for hop in ordered)

    def _disseminate(self, event: NBEvent, exclude: Optional[str]) -> None:
        """Deliver locally and forward toward interested remote brokers.

        Runs after the per-event routing cost was charged.
        """
        if self._closed:
            return
        if self.overload is not None and self.overload.should_shed(
            event.priority, self.sim.now
        ):
            return  # shed before fan-out: no delivery, no forwarding
        self.events_routed += 1
        entry = self.resolve_route(event.topic)
        self.routing_cost.observe(
            self.profile.route_cost_s
            + entry.send_cost_s(self.profile, event.size)
            * len(entry.local_targets)
            + self.profile.forward_cost_s * len(entry.next_hop_groups)
        )
        if self._geo and event.reliable and entry.remote_targets:
            routed: Set[str] = set()
            for _hop, group in entry.next_hop_groups:
                routed |= group
            missing = entry.remote_targets - routed
            if not internal_topic(event.topic):
                if missing:
                    # Interested brokers beyond a partition cut: queue
                    # the reliable event until the route comes back.
                    self._park_wan(event, frozenset(missing))
                if routed:
                    self._note_wan_sent(event, frozenset(routed))
        self._deliver_local(event, exclude, entry)
        if entry.next_hop_groups:
            self._forward_groups(event, entry.next_hop_groups)

    def _deliver_local(
        self,
        event: NBEvent,
        exclude: Optional[str],
        entry: Optional[RouteEntry] = None,
    ) -> None:
        if entry is None:
            entry = self.resolve_route(event.topic)
        if not entry.local_targets:
            return
        cpu = self.host.cpu
        charge_gc = cpu.gc_profile is not None
        execute = cpu.execute
        # A firewall would see a train's pinholes open early (DESIGN.md §7).
        train = cpu.execute_train if self.host.firewall is None else None
        clients = self._clients
        send_cost = entry.send_cost_s(self.profile, event.size)
        alloc = self.profile.alloc_bytes_per_send
        if len(entry.local_targets) > 1:
            # The payload is about to be shared across receivers: freeze
            # it so a mutating receiver fails loudly instead of corrupting
            # its peers.
            event.payload = freeze_payload(event.payload)
        # One envelope + one wire-size computation for the whole fan-out;
        # destinations are distinguished by their link.
        shared = EventDelivery(event)
        wire_size = self.profile.envelope_bytes + len(event.topic) + event.size
        sized = (shared, wire_size)
        delivered: List[str] = []
        sends = []  # datagram sends, queued to the CPU as one job (a train)
        for client_id in entry.local_targets:
            if client_id == exclude:
                continue
            record = clients.get(client_id)
            if record is None:
                continue
            delivered.append(client_id)
            link = record.link
            if train is not None and link.datagram and not (
                event.reliable and record.outbox is not None
            ):
                sends.append(link.send_sized)
                continue
            if sends:  # FIFO: the sends before this item go first
                train(send_cost, sends, sized, alloc)
                sends = []
            if charge_gc:
                cpu.allocate(alloc)
            if event.reliable and record.outbox is not None:
                execute(send_cost, record.outbox.send, event)
            else:
                execute(send_cost, link.send_sized, shared, wire_size)
        if sends:
            train(send_cost, sends, sized, alloc)
        self.events_delivered += len(delivered)
        if not delivered:
            return
        if not internal_topic(event.topic):
            # Management-plane deliveries (monitor samples, traces,
            # alerts) must not pollute the media-delay histogram.
            self.delivery_latency.observe(self.sim.now - event.published_at)
        if event.trace is not None:
            self._complete_trace(event, delivered)

    def _complete_trace(self, event: NBEvent, delivered: List[str]) -> None:
        """Close the in-progress hop and publish the finished trace.

        One :class:`CompletedTrace` per *delivering broker* (carrying the
        receiver list), not per receiver — trace traffic scales with the
        broker path length, not the fan-out.

        The local-delivery branch is completed on a *fork* of the context
        so the event's own (shared) in-progress hop stays unstamped for
        any forward branches forked after this call.
        """
        context = event.trace.fork()
        hop = context.open_hop
        if hop is not None and hop.departed_at is None:
            hop.departed_at = self.sim.now
            hop.link = "local"
        completed = CompletedTrace(
            trace_id=context.trace_id,
            topic=context.topic,
            source=context.source,
            published_at=context.published_at,
            delivered_at=self.sim.now,
            delivered_by=self.broker_id,
            delivered_to=tuple(delivered),
            context=context,
        )
        self.traces_completed += 1
        trace_event = NBEvent(
            topic=f"{TRACE_TOPIC_PREFIX}/{self.broker_id}",
            payload=completed,
            size=completed.wire_size(),
            source=self.broker_id,
            published_at=self.sim.now,
        )
        # Disseminated like any publish (charging this broker's modeled
        # CPU — trace overhead is real overhead), but never itself traced.
        self.host.cpu.execute(
            self.profile.route_cost_s, self._disseminate, trace_event, None
        )

    def _forward_to_targets(self, event: NBEvent, targets: Set[str]) -> None:
        key = frozenset(targets)
        groups = self.route_cache.lookup_groups(key, self._routes_gen)
        if groups is None:
            groups = self.route_cache.store_groups(
                key, self._routes_gen, self._compute_groups(key)
            )
        if self._geo and event.reliable:
            routed: Set[str] = set()
            for _hop, group in groups:
                routed |= group
            missing = key - routed
            if not internal_topic(event.topic):
                if missing:
                    self._park_wan(event, missing)
                if routed:
                    self._note_wan_sent(event, frozenset(routed))
        self._forward_groups(event, groups)

    def _forward_groups(self, event: NBEvent, groups: NextHopGroups) -> None:
        if event.trace is None:
            for next_hop, group_targets in groups:
                peer_event = PeerEvent(event=event, targets=group_targets)
                self.events_forwarded += 1
                self.host.cpu.execute(
                    self.profile.forward_cost_s,
                    self._send_peer, next_hop, peer_event,
                )
            return
        # Traced fan-out: clone the event per branch (same event_id, so
        # reliability/ordering dedup is unaffected) with a forked trace,
        # so concurrent branches never interleave hop records.
        for next_hop, group_targets in groups:
            branch = event.fork_for_branch()
            hop = branch.trace.open_hop
            peer_event = PeerEvent(event=branch, targets=group_targets)
            self.events_forwarded += 1
            if hop is not None and hop.departed_at is None:
                hop.link = next_hop
                self.host.cpu.execute_traced(
                    self.profile.forward_cost_s,
                    self._send_peer_stamped, next_hop, peer_event, hop,
                    hop=hop,
                )
            else:
                self.host.cpu.execute(
                    self.profile.forward_cost_s,
                    self._send_peer, next_hop, peer_event,
                )

    # --------------------------------------------------------- peer plane

    def _send_peer(self, peer_id: str, message: Any) -> None:
        if self._closed:
            return  # a CPU-deferred send can fire after an abrupt crash
        address = self._peers.get(peer_id)
        if address is None:
            return
        size = message_size(message, self.profile.envelope_bytes)
        self._peer_socket.sendto(message, size, address)

    def _send_peer_toward(self, destination: str, message: Any) -> None:
        """Send toward a (possibly multi-hop) destination broker."""
        if destination == self.broker_id:
            return
        next_hop = self._routes.get(destination)
        if next_hop is None:
            return
        self._send_peer(next_hop, message)

    def _send_peer_stamped(
        self, peer_id: str, message: Any, hop: HopRecord
    ) -> None:
        """Traced variant of :meth:`_send_peer`: stamp the hop departure
        at the moment the copy actually leaves this broker."""
        hop.departed_at = self.sim.now
        self._send_peer(peer_id, message)

    def _send_toward_stamped(
        self, destination: str, message: Any, hop: HopRecord
    ) -> None:
        hop.departed_at = self.sim.now
        self._send_peer_toward(destination, message)

    def _on_peer_message(self, payload: Any, src: Address, datagram: Datagram) -> None:
        from_peer = self._peer_by_address.get(src)
        if from_peer is not None:
            # Any traffic proves liveness — a busy peer that never gets a
            # heartbeat out between media bursts is still clearly alive.
            self._peer_last_heard[from_peer] = self.sim.now
        if isinstance(payload, PeerEvent):
            self._on_peer_event(payload, from_peer=from_peer)
        elif isinstance(payload, SequenceRequest):
            self._on_sequence_request(payload)
        elif isinstance(payload, SubAdvert):
            self._on_sub_advert(payload, from_peer=from_peer)
        elif isinstance(payload, SequencerPin):
            self._on_sequencer_pin(payload, from_peer=from_peer)
        elif isinstance(payload, PeerHeartbeat):
            self.peer_heartbeats_received += 1
        elif isinstance(payload, LinkStateAdvert):
            self._on_link_state_advert(payload, from_peer=from_peer)
        elif isinstance(payload, LinkStateDigest):
            self._on_link_state_digest(payload, from_peer=from_peer)
        elif isinstance(payload, ClusterLsa):
            self._on_cluster_lsa(payload, from_peer=from_peer)
        elif isinstance(payload, ClusterInterestAdvert):
            self._on_cluster_interest(payload, from_peer=from_peer)
        elif isinstance(payload, ClusterDigest):
            self._on_cluster_digest(payload, from_peer=from_peer)

    def _on_peer_event(
        self, peer_event: PeerEvent, from_peer: Optional[str] = None
    ) -> None:
        event = peer_event.event
        if self.overload is not None and self.overload.should_shed(
            event.priority, self.sim.now
        ):
            return  # shed in transit: neither delivered nor re-forwarded
        hop = self._begin_hop(event)
        targets = set(peer_event.targets)
        if self._clustered and from_peer in self._intercluster_peers:
            self.intercluster_hops += 1
        reexported = False
        if self.broker_id in targets:
            targets.discard(self.broker_id)
            if self._clustered and self.is_gateway:
                # Tier boundary: being a target at a gateway also means
                # "re-export".  Arrivals over an inter-cluster link fan
                # out to own-cluster members with matching interest;
                # arrivals from inside the cluster are exported to
                # remote-gateway targets — but only by the active
                # gateway, so a standby never duplicates the export.
                extra = self._reexport_targets(event, from_peer)
                if extra:
                    targets |= extra
                    reexported = True
            if hop is not None:
                # Deliver on a fork when we also forward onward, so the
                # onward branches keep their own in-progress hop.
                local = event.fork_for_branch() if targets else event
                self.host.cpu.execute_traced(
                    self.profile.route_cost_s,
                    self._deliver_local, local, None,
                    hop=local.trace.hops[-1],
                )
            else:
                self.host.cpu.execute(
                    self.profile.route_cost_s, self._deliver_local, event, None
                )
            self.events_routed += 1
        if targets:
            if reexported:
                # The re-export resolved a fresh fan-out at the tier
                # boundary: charge it like any other routing decision.
                self.host.cpu.execute(
                    self.profile.route_cost_s,
                    self._forward_to_targets, event, targets,
                )
            else:
                self._forward_to_targets(event, targets)

    def _on_sequence_request(self, request: SequenceRequest) -> None:
        event = request.event
        hop = self._begin_hop(event)
        sequencer = self.sequencer_for(event.topic)
        if sequencer != self.broker_id:
            if self._geo and sequencer not in self._routes:
                # Mid-flight topology change cut the sequencer off:
                # park here rather than silently dropping the forward.
                self._park_ordered(event, None)
                return
            # Not ours (topology may have changed); forward along.
            if hop is not None:
                hop.link = f"seq:{sequencer}"
                self.host.cpu.execute_traced(
                    self.profile.forward_cost_s,
                    self._send_toward_stamped, sequencer, request, hop,
                    hop=hop,
                )
            else:
                self.host.cpu.execute(
                    self.profile.forward_cost_s,
                    self._send_peer_toward,
                    sequencer,
                    request,
                )
            return
        if self._geo:
            self._note_sequenced(event.topic, request.origin_broker)
        event.sequence = self._sequences.get(event.topic, 0)
        event.sequenced_by = self.broker_id
        self._sequences[event.topic] = event.sequence + 1
        if hop is not None:
            self.host.cpu.execute_traced(
                self.profile.route_cost_s, self._disseminate, event, None,
                hop=hop,
            )
        else:
            self.host.cpu.execute(
                self.profile.route_cost_s, self._disseminate, event, None
            )

    def _on_sub_advert(
        self, advert: SubAdvert, from_peer: Optional[str] = None
    ) -> None:
        if not self._seen_adverts.add(advert.advert_id):
            return
        self.control_messages += 1
        if advert.origin_broker == self.broker_id:
            # Echo of our own advert: our original flood already covered
            # every reachable peer, and our local state is authoritative.
            return
        if advert.add:
            changed = self._remote_interest.add(
                advert.pattern, advert.origin_broker
            )
        else:
            changed = self._remote_interest.remove(
                advert.pattern, advert.origin_broker
            )
        if not changed:
            # Already-known state: a peer-sync offer, or an echo whose id
            # aged out of the dedup window.  Absorb it — re-flooding a
            # no-op is what turns a window eviction into a self-sustaining
            # advert storm (each re-flood evicts more live ids, whose
            # echoes then also read as new).
            return
        if self._member_interest is not None:
            # SubAdverts never cross a cluster boundary, so the origin is
            # one of our members — not a foreign install.
            if advert.add:
                self._member_interest.add(advert.pattern)
            else:
                self._member_interest.remove(advert.pattern)
        # Reflood to everyone except the peer it arrived from — sending
        # it back is pure waste (the sender already deduplicates it).
        self._flood_advert(advert, skip_peer=from_peer)
        self._schedule_summary_refresh()
        if self._geo and advert.add and self._wan_parked:
            # Fresh interest after a heal may unlock parked deliveries.
            self._schedule_park_drain()

    def _flood_advert(self, advert: Any, skip_peer: Optional[str]) -> None:
        """Flood a dedup-windowed advert (SubAdvert or LinkStateAdvert) to
        every peer except the one it arrived from.

        Clustered: the flood is scoped to intra-cluster links — member
        subscription state and member adjacency never cross a cluster
        boundary; the gateway overlay carries aggregated summaries and
        cluster-level LSAs instead.
        """
        self._seen_adverts.add(advert.advert_id)
        if self._clustered:
            peers = self._intra_sorted
            if self._intercluster_peers and isinstance(advert, LinkStateAdvert):
                self.cluster_lsas_scoped += 1
        else:
            peers = self._sorted_peers
        for peer_id in peers:
            if peer_id == skip_peer:
                continue
            self.host.cpu.execute(
                self.profile.control_cost_s, self._send_peer, peer_id, advert
            )

    def _gateway_overlay_peers(self) -> List[str]:
        """Direct peers on the gateway overlay: inter-cluster links plus
        co-gateways of our own cluster we hold an intra link to."""
        overlay = set(self._intercluster_peers)
        for gateway in self.cluster_gateways:
            if gateway != self.broker_id and gateway in self._peers:
                overlay.add(gateway)
        return sorted(overlay)

    def _flood_gateway(self, advert: Any, skip_peer: Optional[str]) -> None:
        """Flood a gateway-tier advert over the gateway overlay."""
        self._seen_adverts.add(advert.advert_id)
        for peer_id in self._gateway_overlay_peers():
            if peer_id == skip_peer:
                continue
            self.host.cpu.execute(
                self.profile.control_cost_s, self._send_peer, peer_id, advert
            )

    # --------------------------------- peer failure detection (heartbeats)

    def _arm_peer_heartbeat(self) -> None:
        self._peer_hb_timer = self.sim.schedule(
            self.peer_heartbeat_interval_s, self._peer_heartbeat_tick
        )

    def _peer_heartbeat_tick(self) -> None:
        self._peer_hb_timer = None
        if self._closed:
            return
        self._hb_tick += 1
        deadline = (
            self.sim.now
            - self.peer_heartbeat_interval_s * self.peer_miss_limit
        )
        for peer_id in [
            peer
            for peer in self._sorted_peers
            if self._peer_last_heard.get(peer, 0.0) < deadline
        ]:
            self._evict_peer(peer_id)
        beat = PeerHeartbeat(origin_broker=self.broker_id)
        send_digest = (
            self.link_state_enabled and self._hb_tick % ANTI_ENTROPY_TICKS == 0
        )
        if self._geo and send_digest:
            # Re-originate only when an adjacency's *cost class* moved —
            # classes derive from configured latencies, not samples, so
            # this fires on real reconfiguration (a path override, a
            # region change), never on jitter.  No flap storms.
            current = self._link_cost_classes(self._intra_neighbors())
            if current != self._advertised_costs:
                self.cost_reoriginations += 1
                self._originate_lsa()
        cpu, cost = self.host.cpu, self.profile.control_cost_s
        for peer_id in self._sorted_peers:
            cpu.execute(cost, self._send_peer, peer_id, beat)
            if not send_digest:
                continue
            if self._clustered and peer_id in self._intercluster_peers:
                # Inter-cluster links repair gateway-tier state only.
                cpu.execute(
                    cost, self._send_peer, peer_id, self._make_cluster_digest()
                )
                continue
            cpu.execute(cost, self._send_peer, peer_id, self._make_digest())
            if (
                self._clustered
                and self.is_gateway
                and peer_id in self.cluster_gateways
            ):
                # Co-gateways also reconcile the gateway tier, so a
                # standby's shadow state survives lost overlay floods.
                cpu.execute(
                    cost, self._send_peer, peer_id, self._make_cluster_digest()
                )
        self._arm_peer_heartbeat()

    def _evict_peer(self, peer_id: str) -> None:
        """Declare a silent peer dead — no central announcement involved.

        ``remove_peer`` re-originates our LSA; once the flood converges
        and the dead broker is globally unreachable, the local recompute
        path (:meth:`set_routes`) purges its remote interest everywhere.
        """
        self.peers_evicted += 1
        self.remove_peer(peer_id)

    # ------------------------------------------- link-state routing (LSAs)

    def _intra_neighbors(self) -> FrozenSet[str]:
        """Adjacency advertised in member LSAs: all peers in flat mode,
        intra-cluster peers only when clustered (inter links belong to
        the gateway tier and must not leak into member LSAs)."""
        if self._clustered:
            return frozenset(
                peer
                for peer in self._peers
                if peer not in self._intercluster_peers
            )
        return frozenset(self._peers)

    @staticmethod
    def _cost_class(latency_s: float) -> int:
        """Quantize a configured one-way latency into a routing cost class.

        Classes come from *configured* link/fabric latencies only — never
        from per-packet samples — so jitter cannot move an adjacency
        between classes and cost changes are as rare as topology changes.
        """
        for ceiling, cls in COST_CLASSES:
            if latency_s < ceiling:
                return cls
        return COST_CLASS_MAX

    def _link_cost_classes(self, peers: Iterable[str]) -> Dict[str, int]:
        """Cost class per adjacency, from the simnet's configured path
        latency plus our own access-link latency."""
        network = self.host.network
        own = self.host.link.latency_s
        costs: Dict[str, int] = {}
        for peer_id in peers:
            address = self._peers.get(peer_id)
            if address is None:
                continue
            latency = network.fabric_latency(self.host.name, address.host)
            costs[peer_id] = self._cost_class(latency + own)
        return costs

    def _originate_lsa(self) -> None:
        """Flood a fresh advert for our current adjacency."""
        self.lsas_originated += 1
        neighbors = self._intra_neighbors()
        costs = self._link_cost_classes(neighbors) if self._geo else None
        epoch = self._lsdb.originate(neighbors, costs or None)
        self._advertised_costs = costs or {}
        self._flood_advert(
            LinkStateAdvert(
                origin_broker=self.broker_id,
                epoch=epoch,
                neighbors=neighbors,
                costs=costs or None,
            ),
            skip_peer=None,
        )
        self._schedule_recompute()

    def _make_digest(self) -> LinkStateDigest:
        return LinkStateDigest(
            origin_broker=self.broker_id, epochs=self._lsdb.epochs()
        )

    def _on_link_state_advert(
        self, lsa: LinkStateAdvert, from_peer: Optional[str]
    ) -> None:
        if not self._seen_adverts.add(lsa.advert_id):
            self.lsas_deduped += 1
            return
        self.control_messages += 1
        self.lsas_received += 1
        verdict = self._lsdb.offer(
            lsa.origin_broker, lsa.epoch, lsa.neighbors, lsa.costs or None
        )
        if verdict is ECHO:
            self._originate_lsa()
        elif verdict is STALE:
            self.lsas_stale += 1
        elif verdict is NEWER:
            self._flood_advert(lsa, skip_peer=from_peer)
            self._schedule_recompute()

    def _on_link_state_digest(
        self, digest: LinkStateDigest, from_peer: Optional[str]
    ) -> None:
        if from_peer is None or from_peer in self._intercluster_peers:
            return  # member LSDBs never reconcile across a cluster boundary
        self.control_messages += 1
        cpu, cost = self.host.cpu, self.profile.control_cost_s
        for origin, epoch, neighbors, costs in self._lsdb.newer_than(
            digest.epochs
        ):
            lsa = LinkStateAdvert(
                origin_broker=origin,
                epoch=epoch,
                neighbors=neighbors,
                costs=costs,
            )
            self._seen_adverts.add(lsa.advert_id)
            cpu.execute(cost, self._send_peer, from_peer, lsa)
        if self._lsdb.behind(digest.epochs):
            # Ask for the newer entries with our own digest.
            cpu.execute(cost, self._send_peer, from_peer, self._make_digest())

    def _schedule_recompute(self) -> None:
        """Debounced local route recompute (many LSAs, one Dijkstra)."""
        if not self.link_state_enabled or self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.schedule(0.0, self._run_recompute)

    def _run_recompute(self) -> None:
        self._recompute_pending = False
        if self._closed:
            return
        self._recompute_routes()

    def _recompute_routes(self) -> None:
        """Compute our next-hop table from the link-state database.

        An edge counts only when *both* endpoints advertise it (a broker
        that evicted us no longer routes through us, so we must not route
        through it either).  Cost-weighted when any origin advertises
        cost classes (geo mode), unit-weight otherwise; ties break
        lexicographically so every broker derives consistent paths.
        """
        claimed: Dict[str, FrozenSet[str]] = {}
        costs: Dict[str, Dict[str, int]] = {}
        for origin, (_, neighbors, cost) in self._lsdb.items():
            claimed[origin] = neighbors
            if cost:
                costs[origin] = cost
        claimed[self.broker_id] = self._intra_neighbors()
        routes, dist = self._dijkstra(claimed, costs)
        gw_dist: Dict[str, int] = {}
        if self._clustered and self.is_gateway:
            routes, gw_dist = self._merge_gateway_routes(routes)
        self.set_routes(routes)
        # Forget unreachable origins: their interest was just purged by
        # set_routes, and dropping the stale LSDB entry means a restarted
        # broker re-enters at epoch 1 without fighting its past life.
        # Geo mode retains them instead — a WAN partition makes half the
        # fabric "unreachable" for seconds, and the retained entries keep
        # the foreign-gateway filter and stable-set election truthful
        # while it lasts (the LSA echo rule still resolves restarts).
        if not self._geo:
            for origin in [
                o for o in self._lsdb if o != self.broker_id and o not in dist
            ]:
                del self._lsdb[origin]
            if self._clustered and self.is_gateway:
                for origin in [
                    o
                    for o in self._gw_lsdb
                    if o != self.broker_id and o not in gw_dist
                ]:
                    del self._gw_lsdb[origin]
                    self._cluster_interest.pop(origin, None)
        self._check_active_gateway()
        if self._clustered and self.is_gateway:
            # A foreign gateway may have vanished (its entries were just
            # purged) without our own active/standby role changing:
            # reconcile installs and proxies against the surviving set.
            self._reconcile_foreign_install()
        self._schedule_summary_refresh()

    def _dijkstra(
        self,
        claimed: Dict[str, FrozenSet[str]],
        costs: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> Tuple[Dict[str, str], Dict[str, int]]:
        """Cost-weighted shortest paths over a two-sided-claim adjacency;
        returns (destination → first hop, destination → distance).

        An edge's weight is the larger of the two endpoints' advertised
        cost classes, defaulting to 1 when neither side advertises any —
        so a costless database degenerates to exactly the pre-geo
        unit-weight hop count, heap order included.  Ties break on
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
        me = self.broker_id
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

    def _merge_gateway_routes(
        self, routes: Dict[str, str]
    ) -> Tuple[Dict[str, str], Dict[str, int]]:
        """Overlay the gateway-tier shortest paths onto the intra table.

        The gateway overlay's first hops are always direct peers (inter
        links or co-gateways), so the merged table stays a plain
        destination → next-peer map and the whole existing forwarding
        fast path works unchanged.  Same-cluster destinations keep their
        intra routes — the overlay only contributes *foreign* gateways.
        """
        claimed: Dict[str, FrozenSet[str]] = {}
        cluster_of: Dict[str, str] = {}
        costs: Dict[str, Dict[str, int]] = {}
        for origin, (_, neighbors, cluster, cost) in self._gw_lsdb.items():
            claimed[origin] = neighbors
            cluster_of[origin] = cluster
            if cost:
                costs[origin] = cost
        claimed[self.broker_id] = frozenset(self._gateway_overlay_peers())
        gw_routes, gw_dist = self._dijkstra(claimed, costs)
        merged = dict(routes)
        for gateway, first_hop in gw_routes.items():
            if cluster_of.get(gateway) == self.cluster_id:
                continue  # same-cluster: intra routing wins
            merged.setdefault(gateway, first_hop)
        return merged, gw_dist

    # ---------------------------------------- cluster tier (gateway plane)

    def _foreign_origins(self) -> Set[str]:
        """Gateways in ``_cluster_interest`` belonging to other clusters."""
        return {
            origin
            for origin, (_, _, cluster) in self._cluster_interest.items()
            if cluster != self.cluster_id
        }

    def _originate_gw_lsa(self) -> None:
        """Flood a fresh gateway-tier advert for our overlay adjacency."""
        if not (self._clustered and self.is_gateway):
            return
        self.lsas_originated += 1
        neighbors = frozenset(self._gateway_overlay_peers())
        costs = self._link_cost_classes(neighbors) if self._geo else None
        epoch = self._gw_lsdb.originate(
            neighbors, self.cluster_id, costs or None
        )
        self._flood_gateway(
            ClusterLsa(
                origin_gateway=self.broker_id,
                cluster_id=self.cluster_id,
                epoch=epoch,
                gw_neighbors=neighbors,
                costs=costs or None,
            ),
            skip_peer=None,
        )
        self._schedule_recompute()

    def _make_cluster_digest(self) -> ClusterDigest:
        return ClusterDigest(
            origin_gateway=self.broker_id,
            lsa_epochs=self._gw_lsdb.epochs(),
            interest_epochs=self._cluster_interest.epochs(),
        )

    def _on_cluster_lsa(
        self, lsa: ClusterLsa, from_peer: Optional[str]
    ) -> None:
        if not self._seen_adverts.add(lsa.advert_id):
            self.lsas_deduped += 1
            return
        if not (self._clustered and self.is_gateway):
            return  # members are never on the gateway overlay
        self.control_messages += 1
        self.lsas_received += 1
        verdict = self._gw_lsdb.offer(
            lsa.origin_gateway,
            lsa.epoch,
            frozenset(lsa.gw_neighbors),
            lsa.cluster_id,
            lsa.costs or None,
        )
        if verdict is ECHO:
            self._originate_gw_lsa()
        elif verdict is STALE:
            self.lsas_stale += 1
        elif verdict is NEWER:
            self._flood_gateway(lsa, skip_peer=from_peer)
            self._schedule_recompute()

    def _on_cluster_interest(
        self, advert: ClusterInterestAdvert, from_peer: Optional[str]
    ) -> None:
        if not self._seen_adverts.add(advert.advert_id):
            self.lsas_deduped += 1
            return
        if not (self._clustered and self.is_gateway):
            return
        self.control_messages += 1
        verdict = self._cluster_interest.offer(
            advert.origin_gateway,
            advert.epoch,
            tuple(advert.patterns),
            advert.cluster_id,
        )
        if verdict is ECHO:
            # Force a resend so remote clusters converge on our live
            # summary.
            self._last_summary = None
            self._schedule_summary_refresh()
        elif verdict is STALE:
            self.lsas_stale += 1
        elif verdict is NEWER:
            self._flood_gateway(advert, skip_peer=from_peer)
            if (
                advert.cluster_id != self.cluster_id
                and self._active_gateway == self.broker_id
            ):
                self._reconcile_foreign_install()

    def _on_cluster_digest(
        self, digest: ClusterDigest, from_peer: Optional[str]
    ) -> None:
        """Gateway-tier anti-entropy: push strictly-newer entries to the
        peer, and ask back (with our digest) when strictly behind.
        Terminates for the same reason the member tier does — replies
        are only sent when strictly behind and epochs only advance."""
        if from_peer is None or not (self._clustered and self.is_gateway):
            return
        self.control_messages += 1
        cpu, cost = self.host.cpu, self.profile.control_cost_s
        their_lsas = digest.lsa_epochs
        their_interest = digest.interest_epochs
        adverts: List[Any] = [
            ClusterLsa(
                origin_gateway=origin,
                cluster_id=cluster,
                epoch=epoch,
                gw_neighbors=neighbors,
                costs=costs,
            )
            for origin, epoch, neighbors, cluster, costs
            in self._gw_lsdb.newer_than(their_lsas)
        ]
        adverts += [
            ClusterInterestAdvert(
                origin_gateway=origin,
                cluster_id=cluster,
                epoch=epoch,
                patterns=patterns,
            )
            for origin, epoch, patterns, cluster
            in self._cluster_interest.newer_than(their_interest)
        ]
        own_epoch = self._cluster_interest.epoch
        if own_epoch and their_interest.get(self.broker_id, -1) < own_epoch:
            # Our own summary is not in the table; it goes out last.
            adverts.append(self._summary_advert())
        for advert in adverts:
            self._seen_adverts.add(advert.advert_id)
            cpu.execute(cost, self._send_peer, from_peer, advert)
        if self._gw_lsdb.behind(their_lsas) or self._cluster_interest.behind(
            their_interest
        ):
            cpu.execute(
                cost, self._send_peer, from_peer, self._make_cluster_digest()
            )

    def _check_active_gateway(self) -> None:
        """(Re)elect our cluster's active gateway: the lowest gateway id
        that is us or intra-reachable.  Only the active gateway imports
        foreign interest, proxies it to members, exports events, and
        publishes the cluster's summary; standbys are pure transit with
        shadow state, ready for takeover."""
        if not (self._clustered and self.is_gateway):
            return
        live = [
            gateway
            for gateway in self.cluster_gateways
            if gateway == self.broker_id or gateway in self._routes
        ]
        active = min(live) if live else self.broker_id
        previous = self._active_gateway
        if active == previous:
            return
        self._active_gateway = active
        if active == self.broker_id:
            if previous is not None:
                self.gateway_takeovers += 1
            self._reconcile_foreign_install()
            self._last_summary = None  # force a (re)send of our summary
            self._schedule_summary_refresh()
        elif previous == self.broker_id:
            # Demoted (a lower gateway healed): uninstall foreign
            # interest, withdraw proxies, and retract our summary so
            # remote clusters stop exporting toward us — otherwise both
            # gateways stay targeted and every event delivers twice.
            self._reconcile_foreign_install()
            if self._cluster_interest.epoch:
                self._originate_summary(())

    def _schedule_summary_refresh(self) -> None:
        """Debounced recompute of our aggregated interest summary (many
        subscription changes, one summary flood), rate-limited to one
        flood per ``SUMMARY_REFRESH_MIN_INTERVAL_S`` so churn below the
        collapse budget cannot export one overlay flood per op.  No-op
        for members and for the flat mesh."""
        if not (self._clustered and self.is_gateway) or self._summary_pending:
            return
        self._summary_pending = True
        delay = max(
            0.0,
            self._last_summary_flood_at
            + SUMMARY_REFRESH_MIN_INTERVAL_S
            - self.sim.now,
        )
        self.sim.schedule(delay, self._run_summary_refresh)

    def _run_summary_refresh(self) -> None:
        self._summary_pending = False
        if self._closed:
            return
        self._refresh_interest_summary()

    def _refresh_interest_summary(self) -> None:
        """Recompute and (when changed) flood this cluster's aggregated
        interest summary.  Active gateway only."""
        if self._active_gateway != self.broker_id:
            return
        patterns = self._member_interest
        budget = INTEREST_SUMMARY_BUDGET
        if self._summary_collapsed:
            # Hysteresis: a cluster hovering at the budget must not flap
            # between the exact list and the wildcard form on every
            # churn transient — stay collapsed until interest genuinely
            # narrows.
            budget //= SUMMARY_COLLAPSE_RELEASE
        summary = patterns.summary(budget)
        if summary == self._last_summary:
            return
        self._summary_collapsed = len(summary) < len(patterns)
        self._last_summary_flood_at = self.sim.now
        self.adverts_aggregated += len(patterns)
        self._originate_summary(summary)

    def _originate_summary(self, summary: Tuple[str, ...]) -> None:
        """Flood ``summary`` as our cluster's interest under a new epoch."""
        self._cluster_interest.bump()
        self._last_summary = summary
        self._flood_gateway(self._summary_advert(), skip_peer=None)

    def _summary_advert(self) -> ClusterInterestAdvert:
        return ClusterInterestAdvert(
            origin_gateway=self.broker_id,
            cluster_id=self.cluster_id,
            epoch=self._cluster_interest.epoch,
            patterns=self._last_summary or (),
        )

    def _reconcile_foreign_install(self) -> None:
        """Make ``_remote_interest``'s foreign-origin entries match what
        this gateway should install — every foreign summary when active,
        none when standby — then re-derive the proxied pattern set and
        flood the proxy-advert deltas into the cluster."""
        active = self._active_gateway == self.broker_id
        wanted_origins = self._foreign_origins() if active else set()
        for origin in sorted(self._installed_foreign - wanted_origins):
            for pattern in list(self._remote_interest.patterns_for(origin)):
                self._remote_interest.remove(pattern, origin)
            self._installed_foreign.discard(origin)
        for origin in sorted(wanted_origins):
            current = set(self._remote_interest.patterns_for(origin))
            _, patterns, _ = self._cluster_interest[origin]
            wanted = set(patterns)
            for pattern in sorted(current - wanted):
                self._remote_interest.remove(pattern, origin)
            for pattern in sorted(wanted - current):
                self._remote_interest.add(pattern, origin)
            self._installed_foreign.add(origin)
        self._sync_proxies()

    def _sync_proxies(self) -> None:
        """Advertise installed foreign interest into the cluster under
        our own origin, so members route matching events toward us.

        The flood rules keep our *effective* advertised interest — local
        subscriptions ∪ proxied patterns — consistent on both edges: a
        proxy add only floods when the pattern was not already
        advertised locally, and a proxy removal only withdraws when no
        local client still holds the pattern (the subscribe/unsubscribe
        paths apply the mirror-image checks against ``_proxied``).
        """
        wanted: Set[str] = set()
        for origin in self._installed_foreign:
            wanted.update(self._remote_interest.patterns_for(origin))
        for pattern in sorted(self._proxied - wanted):
            self._proxied.discard(pattern)
            if not self._has_local_interest(pattern):
                self._flood_advert(
                    SubAdvert(
                        origin_broker=self.broker_id, pattern=pattern, add=False
                    ),
                    skip_peer=None,
                )
        for pattern in sorted(wanted - self._proxied):
            fresh = not self._has_local_interest(pattern)
            self._proxied.add(pattern)
            if fresh:
                self._flood_advert(
                    SubAdvert(
                        origin_broker=self.broker_id, pattern=pattern, add=True
                    ),
                    skip_peer=None,
                )

    def _reexport_targets(self, event: NBEvent, from_peer: Optional[str]) -> FrozenSet[str]:
        """Extra targets a gateway adds when it is itself targeted.

        Inter-cluster arrival → fan out to own-cluster members with
        matching interest; intra arrival at the *active* gateway →
        export to remote gateways whose aggregated interest matches.
        Standbys receiving intra traffic add nothing, so exports are
        never duplicated.
        """
        entry = self.resolve_route(event.topic)
        if from_peer is not None and from_peer in self._intercluster_peers:
            extra = entry.intra_targets
        elif self._active_gateway == self.broker_id:
            extra = entry.inter_targets
        else:
            extra = None
        return extra if extra is not None else frozenset()

    # ------------------------------------------------------------- admin

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reap_timer is not None:
            self._reap_timer.cancel()
            self._reap_timer = None
        if self._peer_hb_timer is not None:
            self._peer_hb_timer.cancel()
            self._peer_hb_timer = None
        for record in list(self._clients.values()):
            if record.outbox is not None:
                record.outbox.close()
        self._clients.clear()
        self._udp.close()
        self._tcp.close()
        self._ssl.close()
        self._peer_socket.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Broker {self.broker_id} clients={len(self._clients)} "
            f"peers={sorted(self._peers)}>"
        )
