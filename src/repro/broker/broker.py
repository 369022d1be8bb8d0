"""A single NaradaBrokering-style broker node.

Responsibilities:

* accept client connections over UDP / TCP / SSL / HTTP-tunnel links;
* maintain the local subscription trie and deliver published events to
  matching local clients (excluding the publisher — ``noLocal`` semantics,
  which is what RTP loops through topics require);
* exchange subscription adverts with peer brokers (versioned per origin,
  flooded once to every broker, repaired by digests —
  :mod:`repro.broker.adverts`) so events are only forwarded toward
  brokers with matching interest;
* forward events across the broker graph along shortest-path next hops,
  carrying an explicit target set so no broker receives a duplicate;
* track reliable events per datagram client until acknowledged.

Every broker sequences ordered topics through its ordering plane
(:mod:`repro.broker.ordering`).  Three more planes are composed in only
where they run: the link-state mesh (:mod:`repro.broker.mesh`) when the
broker's :class:`~repro.broker.spec.FabricSpec` has mesh timing, the
cluster gateway overlay (:mod:`repro.broker.gateway`) on a gateway
broker, and geo partition survival (:mod:`repro.broker.geo`) on a
broker with a region.

Every hop charges the host CPU according to the broker's
:class:`~repro.broker.profile.BrokerProfile` — routing cost per event,
send cost and heap allocation per destination copy.  Those constants are
the knobs the Figure 3 calibration turns.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
    Set, Tuple,
)

from repro.broker.adverts import Adverts
from repro.broker.event import NBEvent, freeze_payload
from repro.broker.gateway import Gateway
from repro.broker.geo import Geo
from repro.broker.links import (
    Busy,
    ClientLink,
    ClusterDigest,
    ClusterInterestAdvert,
    Connect,
    ConnectAck,
    Disconnect,
    EventAck,
    EventDelivery,
    Heartbeat,
    HeartbeatAck,
    LinkStateAdvert,
    LinkStateDigest,
    PeerEvent,
    PeerHeartbeat,
    Publish,
    SequenceRequest,
    SequencerPin,
    SslClientLink,
    SubAdvert,
    SubDigest,
    SubSnapshot,
    Subscribe,
    SubscribeAck,
    TcpClientLink,
    UdpClientLink,
    Unsubscribe,
)
from repro.broker.mesh import Mesh
from repro.broker.ordering import Ordering
from repro.broker.overload import NORMAL, OverloadController
from repro.broker.profile import BrokerProfile, NARADA_PROFILE
from repro.broker.reliable import OutboxTally, ReliableOutbox
from repro.broker.route_cache import (
    NextHopGroups, RouteCache, RouteEntry, SendCosts,
)
from repro.broker.spec import FabricSpec
from repro.broker.topic import PatternSummary, TopicTrie, validate_pattern
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
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

#: Every counter a broker and its planes bump (``broker.<name> += 1``),
#: in registration order — the order of ``statistics()`` and of every
#: monitor sample.
COUNTERS = (
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
    "cost_reoriginations",
    "snapshots_installed",
)


class _ClientRecord:
    """Broker-side state for one connected client.  A datagram client's
    :class:`ReliableOutbox` is made on its first reliable event
    (``Broker._outbox``); a stream link needs none.  A datagram link's
    ``send_sized``, bound once, is the send every fan-out plan to it
    shares."""

    __slots__ = ("client_id", "link", "send_sized", "outbox", "last_seen")

    def __init__(
        self,
        client_id: str,
        link: ClientLink,
        last_seen: float = 0.0,
    ):
        self.client_id = client_id
        self.link = link
        self.send_sized = link.send_sized if link.datagram else None
        self.outbox: Optional[ReliableOutbox] = None
        self.last_seen = last_seen


class Broker:
    """One broker node bound to a simulated host."""

    def __init__(
        self,
        host: Host,
        broker_id: Optional[str] = None,
        profile: BrokerProfile = NARADA_PROFILE,
        reap_timeout_s: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        spec: FabricSpec = FabricSpec(),
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
        #: Bumped by every change to ``_clients``; validates fan-out plans.
        self._clients_generation = 0
        #: Pending and overflow-evicted reliable events across every
        #: client outbox this broker ever opened, kept by the outboxes.
        self._outboxes = OutboxTally()
        self._local_subs: TopicTrie[str] = TopicTrie()
        self._remote_interest: TopicTrie[str] = TopicTrie()
        self._peers: Dict[str, Address] = {}
        self._peer_by_address: Dict[Address, str] = {}
        self._sorted_peers: Tuple[str, ...] = ()
        #: Gateway-to-gateway links between clusters (none when flat).
        self._intercluster_peers: Set[str] = set()
        self._intra_sorted: Tuple[str, ...] = ()
        self._routes: Dict[str, str] = {}
        self._routes_gen = 0
        self.adverts = Adverts(self)
        # Routing fast path: memoized per-topic fan-out, the generation
        # triple its entries share, and the per-size send costs.
        self.route_cache = RouteCache()
        self._generation: Tuple[int, int, int] = (-1, -1, -1)
        self.send_costs = SendCosts(profile)
        self.ordering = Ordering(self)

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

        # Autonomous mesh, built only where it runs: peer heartbeats
        # detect dead neighbours without any central announcement, and
        # flooded link-state adverts let every broker compute its own
        # next-hop table.  Without mesh timing this broker is on the
        # central plane: BrokerNetwork pushes its routes.
        self.mesh: Optional[Mesh] = (
            Mesh(self, spec.mesh) if spec.mesh is not None else None
        )

        # Cluster tier (opt-in).  ``cluster_id is None`` is the flat
        # mesh.  When clustered, SubAdvert/LSA floods are scoped to
        # intra-cluster links, and a broker listed among its cluster's
        # gateways also builds the gateway overlay (DESIGN.md §8).
        self.cluster_id = spec.cluster_of(self.broker_id)
        self.gateway: Optional[Gateway] = None
        if self.cluster_id is not None:
            gateways = spec.gateways(self.cluster_id)
            if self.broker_id in gateways:
                self.gateway = Gateway(
                    self, self.cluster_id, tuple(sorted(gateways))
                )
        if self.gateway is None:
            # A route entry is its topic's matches in the two tries (and
            # the route generation), so it outlives changes its topic
            # cannot see; a gateway's tier split also reads the set of
            # installed foreign origins, which no trie logs.
            self.route_cache.tries = (self._local_subs, self._remote_interest)
            self._local_subs.track_changes()
            self._remote_interest.track_changes()

        # Geo partition survival, built only with a region (DESIGN.md
        # §12): link-state adverts carry cost classes, sequencers pin
        # near their publishers, and a partition parks ordered topics
        # and cross-region reliable traffic until it heals.
        self.region = spec.region_of(self.broker_id)
        self.geo: Optional[Geo] = (
            Geo(self, spec) if self.region is not None else None
        )

        # Overload protection (opt-out).  The controller is a pure
        # observer below its watermarks: pressure is read inline at the
        # dissemination/admission decision points through side-effect-
        # free signal reads (no timers, no RNG), so an enabled-but-idle
        # controller leaves the simulation bit-identical to a run with
        # ``overload=None`` — the determinism suite pins this.
        # The signals are bound methods (the CPU's and NIC's property
        # getters, and the outbox gauge): no lambda frame per read.
        cpu, nic = self.host.cpu, self.host.nic
        self.overload: Optional[OverloadController] = (
            OverloadController(
                (
                    type(cpu).queue_depth.fget.__get__(cpu),
                    type(nic).queued_bytes.fget.__get__(nic),
                    self._outbox_depth,
                ),
                spec.overload,
            )
            if spec.overload is not None
            else None
        )

        # Observability: sampled end-to-end tracing (shared tracer =
        # collection-wide sampling budget) and the metrics registry, the
        # single source of truth for snapshots.  Every counter is a plain
        # integer attribute mutated on the hot paths, bound in the
        # registry.
        self.tracer = tracer
        self.metrics = MetricsRegistry()
        for counter_name in COUNTERS:
            setattr(self, counter_name, 0)
            self.metrics.expose(
                counter_name, lambda name=counter_name: getattr(self, name)
            )
        self.last_route_change_at = -1.0
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
    def is_gateway(self) -> bool:
        """True for a broker provisioned as one of its cluster's gateways."""
        return self.gateway is not None

    @property
    def is_active_gateway(self) -> bool:
        """True while this broker is its cluster's elected active gateway.

        Side-effect free (reads the election result maintained by peer
        liveness): the telemetry plane uses it to keep exactly one
        cluster-health aggregator publishing per cluster, with standby
        gateways shadowing silently until a takeover (DESIGN.md §11).
        """
        return (
            self.gateway is not None
            and not self._closed
            and self.gateway.active == self.broker_id
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
        self._peers_changed()
        if self.mesh is not None:
            # Its digest carries our subscription versions too.
            self.mesh.link_up(peer_id, intercluster)
        else:
            self.adverts.link_up(peer_id)

    def remove_peer(self, peer_id: str) -> None:
        address = self._peers.pop(peer_id, None)
        if address is not None:
            self._peer_by_address.pop(address, None)
        was_intercluster = peer_id in self._intercluster_peers
        self._intercluster_peers.discard(peer_id)
        self._peers_changed()
        if self.geo is not None:
            self.geo.link_down(peer_id)
        if self.mesh is not None:
            self.mesh.link_down(peer_id, was_intercluster)
        if not was_intercluster:
            # Adverts this link ate may have left us or a peer behind.
            self.adverts.announce()

    def has_peer(self, peer_id: str) -> bool:
        return peer_id in self._peers

    def _peers_changed(self) -> None:
        self._sorted_peers = tuple(sorted(self._peers))
        self._intra_sorted = tuple(
            peer
            for peer in self._sorted_peers
            if peer not in self._intercluster_peers
        )
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
        reachable = set(self._routes)
        reachable.add(self.broker_id)
        if self.geo is not None:
            self.geo.routes_changed(reachable)  # retains remote interest
            return
        self.adverts.forget(reachable)

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
        link = self._client_link(message, src, connection, ssl)
        if self.overload is not None and client_id not in self._clients:
            # Admission control: a SHEDDING broker refuses *new* clients
            # (an established client reconnecting keeps its session) with
            # a retry-after hint instead of taking on more fan-out work.
            admitted, retry_after = self.overload.admit(self.sim.now)
            if not admitted:
                # Busy goes out over the link, but no client record is
                # created — the whole point is not to.
                if link is not None:
                    self.host.cpu.execute(
                        self.profile.control_cost_s,
                        link.send,
                        Busy(
                            client_id=client_id,
                            operation="connect",
                            retry_after_s=retry_after,
                        ),
                    )
                return
        if link is None:
            return
        previous = self._clients.get(client_id)
        if previous is not None and previous.outbox is not None:
            previous.outbox.close()
        self._clients[client_id] = _ClientRecord(
            client_id, link, last_seen=self.sim.now
        )
        self._clients_generation += 1
        self.host.cpu.execute(
            self.profile.control_cost_s,
            link.send,
            ConnectAck(client_id=client_id, broker_id=self.broker_id),
        )

    def _client_link(
        self,
        message: Connect,
        src: Optional[Address],
        connection: Optional[TcpConnection],
        ssl: bool,
    ) -> Optional[ClientLink]:
        """The link a connect arrived on (None: a datagram connect with
        no address to reply to)."""
        envelope = self.profile.envelope_bytes
        if connection is not None:
            if ssl:
                return SslClientLink(
                    message.client_id, envelope, connection, self.host
                )
            return TcpClientLink(message.client_id, envelope, connection)
        reply_to = message.reply_to if message.reply_to is not None else src
        if reply_to is None:
            return None
        return UdpClientLink(
            message.client_id, envelope, self._udp, reply_to,
            kind=message.link_type,
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
        had_interest = self._local_subs.has_pattern(pattern)
        added = self._local_subs.add(pattern, message.client_id)
        gateway = self.gateway
        # A pattern already advertised as a gateway proxy needs no flood:
        # the mesh already routes it here.
        if not had_interest and (
            gateway is None or pattern not in gateway.proxied
        ):
            self.adverts.advertise(pattern, True)
        if gateway is not None:
            if added:
                gateway.member_interest.add(pattern)
            gateway.schedule_summary_refresh()
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
        self._withdraw_local([message.pattern])

    def _withdraw_local(self, patterns: List[str]) -> None:
        """Local holders of ``patterns`` just went away: withdraw each one
        no local client and no gateway proxy still advertises."""
        gateway = self.gateway
        for pattern in patterns:
            if not self._local_subs.has_pattern(pattern) and (
                gateway is None or pattern not in gateway.proxied
            ):
                self.adverts.advertise(pattern, False)
        if gateway is not None:
            for pattern in patterns:
                gateway.member_interest.remove(pattern)
            gateway.schedule_summary_refresh()

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

    def _outbox(self, record: _ClientRecord) -> ReliableOutbox:
        """The outbox of a datagram client, made on its first reliable
        event (TCP/SSL links are already reliable)."""
        outbox = record.outbox
        if outbox is None:
            link, client_id = record.link, record.client_id
            outbox = record.outbox = ReliableOutbox(
                self.sim,
                lambda event: link.send(EventDelivery(event)),
                on_abandon=lambda event: self._on_outbox_abandon(client_id),
                tally=self._outboxes,
            )
        return outbox

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
        self._clients_generation += 1
        if record.outbox is not None:
            record.outbox.close()
        patterns = self._local_subs.patterns_for(client_id)
        for pattern in patterns:
            self._local_subs.remove(pattern, client_id)
        self._withdraw_local(patterns)
        record.link.close()

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
            self.ordering.sequence(event, message.client_id, hop)
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

    # ------------------------------------------------- routing fast path

    def routing_generation(self) -> Tuple[int, int, int]:
        """The generation triple cached route entries are validated
        against: any subscription, advert, or route-table change bumps
        one component and lazily invalidates stale entries."""
        generation = (
            self._local_subs.generation,
            self._remote_interest.generation,
            self._routes_gen,
        )
        if generation != self._generation:
            self._generation = generation
        # One tuple per generation, held by every entry resolved at it.
        return self._generation

    def resolve_route(self, topic: str) -> RouteEntry:
        """Resolve the full fan-out for ``topic`` (cached when fresh)."""
        generation = self.routing_generation()
        cache = self.route_cache
        entry = cache.lookup(topic, generation)
        if entry is not None:
            return entry
        local = tuple(sorted(self._local_subs.match(topic)))
        remote = self._remote_interest.match(topic)
        remote.discard(self.broker_id)
        # One fan-out per distinct target set, shared by its topics.
        fanout = cache.fanout(
            frozenset(remote), self._routes_gen, self._compute_groups
        )
        if self.gateway is not None:
            # Tier partition for gateway re-export: foreign-gateway
            # targets (installed aggregated interest) vs own-cluster
            # members.  Standbys install nothing, so inter is empty and
            # intra degenerates to the full remote set.
            foreign = self.gateway.installed_foreign
            inter: Optional[FrozenSet[str]] = cache.intern(
                frozenset(origin for origin in remote if origin in foreign)
            ).targets
            intra = cache.intern(fanout.targets - inter).targets
        else:
            inter = intra = None
        entry = RouteEntry(
            generation, local, fanout.targets, fanout.groups,
            intra_targets=intra,
            inter_targets=inter,
        )
        cache.store(topic, entry)
        return entry

    def _compute_groups(self, targets: AbstractSet[str]) -> NextHopGroups:
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
        if self.geo is not None and event.reliable:
            self.geo.park_unrouted(
                event, entry.remote_targets, entry.next_hop_groups
            )
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
        send_cost = self.send_costs[event.size]
        alloc = self.profile.alloc_bytes_per_send
        if len(entry.local_targets) > 1:
            # The payload is about to be shared across receivers: freeze
            # it so a mutating receiver fails loudly instead of corrupting
            # its peers.
            event.payload = freeze_payload(event.payload)
        # One envelope + one wire-size computation for the whole fan-out;
        # destinations are distinguished by their link.
        sized = (
            EventDelivery(event),
            self.profile.envelope_bytes + len(event.topic) + event.size,
        )
        if (
            entry.plan_generation == self._clients_generation
            and not event.reliable
            and event.trace is None
            and self.host.firewall is None
            and (exclude is None or exclude not in entry.local_targets)
        ):
            # The walk below, as it came out the last time: one send per
            # live target, all in one train.  Untraced, the delivered list
            # is only counted, so the sends stand in for it.
            delivered = entry.local_plan
            if delivered:
                self.host.cpu.execute_train(send_cost, delivered, sized, alloc)
        else:
            delivered = self._walk_local(
                event, exclude, entry, sized, send_cost, alloc
            )
        self.events_delivered += len(delivered)
        if not delivered:
            return
        if not internal_topic(event.topic):
            # Management-plane deliveries (monitor samples, traces,
            # alerts) must not pollute the media-delay histogram.
            self.delivery_latency.observe(self.sim.now - event.published_at)
        if event.trace is not None:
            self._complete_trace(event, delivered)

    def _walk_local(
        self,
        event: NBEvent,
        exclude: Optional[str],
        entry: RouteEntry,
        sized: Tuple[EventDelivery, int],
        send_cost: float,
        alloc: int,
    ) -> Sequence[str]:
        """Queue the sends of ``event`` (the shared delivery and its wire
        size: ``sized``) to each live local target but ``exclude``, in
        ``entry.local_targets`` order; returns the client ids sent to.
        When every one was a plain datagram send, the walk is kept on
        ``entry`` as its plan (``_deliver_local``)."""
        cpu = self.host.cpu
        charge_gc = cpu.gc_profile is not None
        execute = cpu.execute
        # A firewall would see a train's pinholes open early (DESIGN.md §7).
        train = cpu.execute_train if self.host.firewall is None else None
        clients = self._clients
        # Whether this walk is one the plan may stand in for.
        plain = train is not None and not event.reliable and event.trace is None
        delivered: List[str] = []
        sends = []  # datagram sends, queued to the CPU as one job (a train)
        for client_id in entry.local_targets:
            if client_id == exclude:
                plain = False
                continue
            record = clients.get(client_id)
            if record is None:
                continue
            delivered.append(client_id)
            link = record.link
            if train is not None and link.datagram and not event.reliable:
                sends.append(record.send_sized)
                continue
            plain = False
            if sends:  # FIFO: the sends before this item go first
                train(send_cost, sends, sized, alloc)
                sends = []
            if charge_gc:
                cpu.allocate(alloc)
            if event.reliable and link.datagram:
                execute(send_cost, self._outbox(record).send, event)
            else:
                execute(send_cost, link.send_sized, *sized)
        if sends:
            train(send_cost, sends, sized, alloc)
        if plain:
            entry.local_plan = sends
            entry.plan_generation = self._clients_generation
        return delivered

    def _complete_trace(self, event: NBEvent, delivered: Sequence[str]) -> None:
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
        if self.geo is not None and event.reliable:
            self.geo.park_unrouted(event, key, groups)
        self._forward_groups(event, groups)

    def _forward_groups(self, event: NBEvent, groups: NextHopGroups) -> None:
        send = self._send_peer
        if event.reliable and self.geo is not None:
            send = self.geo.send_reliable
        if event.trace is None:
            for next_hop, group_targets in groups:
                peer_event = PeerEvent(event=event, targets=group_targets)
                self.events_forwarded += 1
                self.host.cpu.execute(
                    self.profile.forward_cost_s, send, next_hop, peer_event
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
                    self._send_stamped, hop, send, next_hop,
                    peer_event, hop=hop,
                )
            else:
                self.host.cpu.execute(
                    self.profile.forward_cost_s, send, next_hop, peer_event
                )

    # --------------------------------------------------------- peer plane

    def _send_peer(self, peer_id: str, message: Any) -> None:
        if self._closed:
            return  # a CPU-deferred send can fire after an abrupt crash
        address = self._peers.get(peer_id)
        if address is None:
            return
        size = message.wire_size(self.profile.envelope_bytes)
        self._peer_socket.sendto(message, size, address)

    def send_control(self, peer_id: str, message: Any) -> None:
        """Send a control-plane message to a peer, after its CPU cost."""
        self.host.cpu.execute(
            self.profile.control_cost_s, self._send_peer, peer_id, message
        )

    def _send_peer_toward(self, destination: str, message: Any) -> None:
        """Send toward a (possibly multi-hop) destination broker."""
        if destination == self.broker_id:
            return
        next_hop = self._routes.get(destination)
        if next_hop is None:
            return
        self._send_peer(next_hop, message)

    def _send_stamped(
        self, hop: HopRecord, send: Callable[[str, Any], None], to: str,
        message: Any,
    ) -> None:
        """Traced variant of ``send`` (:meth:`_send_peer` or
        :meth:`_send_peer_toward`): stamp the hop departure at the moment
        the copy actually leaves this broker."""
        hop.departed_at = self.sim.now
        send(to, message)

    def _on_peer_message(self, payload: Any, src: Address, datagram: Datagram) -> None:
        from_peer = self._peer_by_address.get(src)
        mesh = self.mesh
        if mesh is not None and from_peer is not None:
            # Any traffic proves liveness — a busy peer that never gets a
            # heartbeat out between media bursts is still clearly alive.
            mesh.last_heard[from_peer] = self.sim.now
        if isinstance(payload, PeerEvent):
            self._on_peer_event(payload, from_peer=from_peer)
        elif isinstance(payload, SequenceRequest):
            event = payload.event
            self.ordering.sequence(event, None, self._begin_hop(event), payload)
        elif isinstance(payload, SubAdvert):
            self.adverts.on_advert(payload, from_peer)
        elif isinstance(payload, SubDigest):
            self.adverts.on_digest(payload, from_peer)
        elif isinstance(payload, SubSnapshot):
            self.adverts.on_snapshot(payload, from_peer)
        elif isinstance(payload, SequencerPin):
            if self.geo is not None:  # a regionless broker ignores pins
                self.geo.on_pin(payload)
        elif isinstance(payload, PeerHeartbeat):
            self.peer_heartbeats_received += 1
        elif mesh is None:
            return  # the central plane runs no link-state protocol
        elif isinstance(payload, LinkStateAdvert):
            mesh.on_advert(payload)
        elif isinstance(payload, LinkStateDigest):
            mesh.on_digest(payload, from_peer)
        elif isinstance(payload, EventAck):
            if self.geo is not None:
                self.geo.on_ack(payload, from_peer)
        elif self.gateway is None:
            return  # members are never on the gateway overlay
        elif isinstance(payload, ClusterInterestAdvert):
            self.gateway.on_interest(payload)
        elif isinstance(payload, ClusterDigest):
            self.gateway.on_digest(payload, from_peer)

    def _on_peer_event(
        self, peer_event: PeerEvent, from_peer: Optional[str] = None
    ) -> None:
        event = peer_event.event
        if event.reliable and self.geo is not None:
            self.geo.ack_reliable(event, from_peer)
        if self.overload is not None and self.overload.should_shed(
            event.priority, self.sim.now
        ):
            return  # shed in transit: neither delivered nor re-forwarded
        hop = self._begin_hop(event)
        targets = set(peer_event.targets)
        if from_peer in self._intercluster_peers:
            self.intercluster_hops += 1
        reexported = False
        if self.broker_id in targets:
            targets.discard(self.broker_id)
            if self.gateway is not None:
                # Tier boundary: being a target at a gateway also means
                # "re-export".  Arrivals over an inter-cluster link fan
                # out to own-cluster members with matching interest;
                # arrivals from inside the cluster are exported to
                # remote-gateway targets — but only by the active
                # gateway, so a standby never duplicates the export.
                extra = self.gateway.reexport_targets(event, from_peer)
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

    # ------------------------------------------------------------- admin

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reap_timer is not None:
            self._reap_timer.cancel()
            self._reap_timer = None
        if self.mesh is not None:
            self.mesh.close()
        if self.geo is not None:
            self.geo.close()
        for record in list(self._clients.values()):
            if record.outbox is not None:
                record.outbox.close()
        self._clients.clear()
        self._clients_generation += 1
        # A closed broker routes nothing: let its routing state go (the
        # gateway's member interest is the union of the two tries).
        self._local_subs.clear()
        self._remote_interest.clear()
        self.route_cache.clear()
        if self.gateway is not None:
            self.gateway.member_interest = PatternSummary()
        self._udp.close()
        self._tcp.close()
        self._ssl.close()
        self._peer_socket.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Broker {self.broker_id} clients={len(self._clients)} "
            f"peers={sorted(self._peers)}>"
        )
