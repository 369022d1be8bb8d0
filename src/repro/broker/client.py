"""Publish/subscribe client API.

A :class:`BrokerClient` is the JMS-like client-server face of the
middleware: connect to a broker over a chosen link type, subscribe with
wildcard patterns, publish events.  Operations issued before the connect
handshake completes are queued and flushed on ``ConnectAck``.

Failover (the paper's "dynamic broker collections" surviving broker
churn): with keepalive enabled the client probes broker liveness over the
control plane; when the link goes dark it tears the transport down,
resets inbox state coherently, and — if failover candidates are
registered — reconnects with exponential backoff, re-issuing ``Connect``
and replaying every registered subscription on the new broker.  The
``on_disconnected``/``on_failover`` callbacks let RTP proxies, XGSP
clients, and the H.323/SIP gateways re-establish their bridges.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broker.broker import Broker
from repro.broker.event import NBEvent
from repro.broker.links import (
    Busy,
    ClientTransport,
    Connect,
    ConnectAck,
    Disconnect,
    EventAck,
    EventDelivery,
    Heartbeat,
    HeartbeatAck,
    LinkType,
    Publish,
    SslClientTransport,
    Subscribe,
    SubscribeAck,
    TcpClientTransport,
    TunnelClientTransport,
    UdpClientTransport,
    Unsubscribe,
    message_size,
)
from repro.broker.reliable import OrderedInbox, ReliableInbox
from repro.broker.topic import compile_pattern, match_segments, validate_topic
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.trace import internal_topic
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.util.backoff import ExponentialBackoff

EventHandler = Callable[[NBEvent], None]

#: Control-plane (connect/subscribe) retry interval and budget.  Control
#: messages over datagram links are retried until acknowledged, so clients
#: come up even on lossy paths.
CONTROL_RETRY_S = 0.5
MAX_CONTROL_RETRIES = 20

#: Distinct topics a client's dispatch memo holds before it starts over.
DISPATCH_MEMO_TOPICS = 256

#: Default keepalive probe cadence once enabled.
KEEPALIVE_INTERVAL_S = 1.0
#: Consecutive unacknowledged probes before the link is declared dead.
KEEPALIVE_MISS_LIMIT = 3
#: Exponential-backoff ceiling between failover reconnect attempts.
FAILOVER_MAX_BACKOFF_S = 8.0


class BrokerClient:
    """One collaboration endpoint attached to the broker network."""

    def __init__(
        self,
        host: Host,
        client_id: str,
        publish_cpu_cost_s: float = 8e-6,
        envelope_bytes: int = 66,
        keepalive_interval_s: Optional[float] = None,
        keepalive_miss_limit: int = KEEPALIVE_MISS_LIMIT,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.client_id = client_id
        self.publish_cpu_cost_s = publish_cpu_cost_s
        self.envelope_bytes = envelope_bytes
        self.connected = False
        self.broker_id: Optional[str] = None
        self.keepalive_interval_s = keepalive_interval_s
        self.keepalive_miss_limit = keepalive_miss_limit
        #: Fired (with the client) when the link to the broker is lost.
        self.on_disconnected: Optional[Callable[["BrokerClient"], None]] = None
        #: Fired (client, new_broker) after a reconnect fully completes —
        #: the subscription replay has already been issued at that point.
        self.on_failover: Optional[
            Callable[["BrokerClient", Broker], None]
        ] = None
        self._transport: Optional[ClientTransport] = None
        self._handlers: List[Tuple[str, Tuple[str, ...], EventHandler]] = []
        # topic -> handlers matching it; valid only while ``_handlers`` is
        # the list object ``_memo_of`` at length ``_memo_len``.
        self._memo: Dict[str, List[EventHandler]] = {}
        self._memo_of, self._memo_len = self._handlers, 0
        self._pending: List[Tuple[Any, int]] = []
        self._on_connected: Optional[Callable[["BrokerClient"], None]] = None
        self._reliable_inbox = ReliableInbox()
        self._ordered_inbox = OrderedInbox(self.sim, self._dispatch)
        self._connect_timer = None
        self._subscribe_timers = {}  # pattern -> (timer, retries)
        self._keepalive_timer = None
        self._missed_heartbeats = 0
        self._failover_brokers: List[Broker] = []
        self._failover_backoff = ExponentialBackoff(
            CONTROL_RETRY_S, FAILOVER_MAX_BACKOFF_S, first_immediate=True
        )
        self._failover_timer = None
        self._reconnecting = False
        self._busy_hint_source: Optional[Broker] = None
        self._broker: Optional[Broker] = None
        self._link_type = LinkType.UDP
        self._proxy_address: Optional[Address] = None
        self.events_published = 0
        self.events_received = 0
        self.subscribe_acks = 0
        self.heartbeats_sent = 0
        self.heartbeats_acked = 0
        self.link_losses = 0
        self.failovers = 0
        self.subscriptions_replayed = 0
        self.busy_rejections = 0
        # Optional per-client metrics registry (one registry per client —
        # names are not namespaced).  ``receive_latency_s`` observes the
        # end-to-end publish→dispatch delay of every non-management event.
        self.metrics = metrics
        self._receive_latency = (
            metrics.histogram("receive_latency_s", LATENCY_BUCKETS_S)
            if metrics is not None
            else None
        )
        if metrics is not None:
            for counter_name in (
                "events_published",
                "events_received",
                "link_losses",
                "failovers",
                "subscriptions_replayed",
                "busy_rejections",
            ):
                metrics.expose(
                    counter_name,
                    lambda name=counter_name: getattr(self, name),
                )

    # ----------------------------------------------------------- connect

    def connect(
        self,
        broker: Broker,
        link_type: LinkType = LinkType.UDP,
        proxy: Optional[Address] = None,
        on_connected: Optional[Callable[["BrokerClient"], None]] = None,
    ) -> None:
        """Connect to ``broker`` over ``link_type``.

        ``proxy`` is required for :attr:`LinkType.HTTP_TUNNEL` and must be
        the address of an :class:`repro.simnet.firewall.HttpTunnelProxy`.
        """
        if self._transport is not None:
            raise RuntimeError(f"client {self.client_id} is already connected")
        self._on_connected = on_connected
        self._broker = broker
        self._link_type = link_type
        self._proxy_address = proxy
        if link_type == LinkType.UDP:
            transport: ClientTransport = UdpClientTransport(
                self.host, broker.udp_address
            )
        elif link_type == LinkType.TCP:
            transport = TcpClientTransport(self.host, broker.tcp_address)
        elif link_type == LinkType.SSL:
            transport = SslClientTransport(self.host, broker.ssl_address)
        elif link_type == LinkType.HTTP_TUNNEL:
            if proxy is None:
                raise ValueError("HTTP tunnel links require a proxy address")
            transport = TunnelClientTransport(self.host, broker.udp_address, proxy)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unsupported link type {link_type}")
        self._transport = transport
        transport.on_message = self._on_message
        transport.on_ready = lambda: self._send_connect(link_type, 0)
        transport.start()

    def _send_connect(self, link_type: LinkType, attempt: int) -> None:
        if self.connected or self._transport is None:
            return
        if attempt > MAX_CONTROL_RETRIES:
            if self._reconnecting:
                # This failover candidate never answered: tear the
                # half-open transport down and try the next one.
                transport, self._transport = self._transport, None
                transport.close()
                self._schedule_failover_attempt()
            return
        self._send_now(
            Connect(
                client_id=self.client_id,
                link_type=link_type,
                reply_to=self._transport.reply_address(),
            )
        )
        self._connect_timer = self.sim.schedule(
            CONTROL_RETRY_S, self._send_connect, link_type, attempt + 1
        )

    def disconnect(self) -> None:
        self._cancel_failover()
        if self._transport is None:
            return
        self._cancel_control_timers()
        if self.connected:
            self._send_now(Disconnect(client_id=self.client_id))
        self.connected = False
        self.broker_id = None
        transport, self._transport = self._transport, None
        # Give the Disconnect message a moment on the wire before closing.
        self.sim.schedule(0.05, transport.close)

    def _cancel_control_timers(self) -> None:
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        for timer in self._subscribe_timers.values():
            timer.cancel()
        self._subscribe_timers.clear()
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
            self._keepalive_timer = None

    def _cancel_failover(self) -> None:
        self._reconnecting = False
        self._busy_hint_source = None
        self._failover_backoff.reset()
        if self._failover_timer is not None:
            self._failover_timer.cancel()
            self._failover_timer = None

    # --------------------------------------------------------- liveness

    def set_failover_brokers(self, brokers: List[Broker]) -> None:
        """Candidate brokers to reconnect to (in order) on link loss."""
        self._failover_brokers = list(brokers)

    def start_keepalive(
        self,
        interval_s: float = KEEPALIVE_INTERVAL_S,
        miss_limit: int = KEEPALIVE_MISS_LIMIT,
    ) -> None:
        """Enable liveness probing of the current broker link."""
        self.keepalive_interval_s = interval_s
        self.keepalive_miss_limit = miss_limit
        if self.connected and self._keepalive_timer is None:
            self._arm_keepalive()

    def _arm_keepalive(self) -> None:
        self._keepalive_timer = self.sim.schedule(
            self.keepalive_interval_s, self._keepalive_tick
        )

    def _keepalive_tick(self) -> None:
        self._keepalive_timer = None
        if not self.connected or self._transport is None:
            return
        if self._missed_heartbeats >= self.keepalive_miss_limit:
            self._on_link_lost()
            return
        self._missed_heartbeats += 1
        self.heartbeats_sent += 1
        self._send_now(Heartbeat(client_id=self.client_id))
        self._arm_keepalive()

    def _on_link_lost(self) -> None:
        """The broker stopped answering: tear down and begin failover."""
        if self._transport is None:
            return
        self.link_losses += 1
        self._cancel_control_timers()
        self.connected = False
        self.broker_id = None
        transport, self._transport = self._transport, None
        transport.close()
        # Sequence expectations belong to the dead broker's sequencers.
        self._ordered_inbox.reset()
        if self.on_disconnected is not None:
            self.on_disconnected(self)
        self._failover_backoff.reset()
        self._schedule_failover_attempt()

    def _schedule_failover_attempt(self) -> None:
        if not self._failover_brokers:
            return
        # The broker whose link just died is the worst candidate: try the
        # others first (unless it is the only one we know).
        candidates = [
            broker for broker in self._failover_brokers
            if broker is not self._broker
        ] or self._failover_brokers
        attempt = self._failover_backoff.attempts
        broker = candidates[attempt % len(candidates)]
        if (
            self._busy_hint_source is not None
            and broker is not self._busy_hint_source
        ):
            # The retry-after hint measured one overloaded (or since-
            # dead) broker's capacity; it must not floor the delay of
            # an attempt toward a different candidate — possibly in a
            # different region entirely.
            self._failover_backoff.clear_hint()
        self._busy_hint_source = None
        delay = self._failover_backoff.next_delay()
        self._failover_timer = self.sim.schedule(
            delay, self._attempt_reconnect, broker
        )

    def _attempt_reconnect(self, broker: Broker) -> None:
        self._failover_timer = None
        self._reconnecting = True
        if self._transport is not None:  # stale half-open attempt
            transport, self._transport = self._transport, None
            transport.close()
        self.connect(broker, self._link_type, self._proxy_address)

    def kill(self) -> None:
        """Silent process death (chaos injection): tear the transport
        down with no Disconnect, no failover, no callbacks.  The broker
        learns nothing — reaping or outbox abandonment must notice."""
        self._cancel_failover()
        self._cancel_control_timers()
        self.connected = False
        self.broker_id = None
        self._pending.clear()
        if self._transport is not None:
            transport, self._transport = self._transport, None
            transport.kill()

    def reconnect(self, broker: Broker) -> None:
        """Manually fail over to ``broker``: tear down the current
        transport (without a Disconnect — the old broker is presumed
        dead), re-issue Connect, and replay every subscription."""
        self._cancel_failover()
        self._cancel_control_timers()
        self.connected = False
        self.broker_id = None
        if self._transport is not None:
            transport, self._transport = self._transport, None
            transport.close()
        self._ordered_inbox.reset()
        self._reconnecting = True
        self.connect(broker, self._link_type, self._proxy_address)

    def _replay_subscriptions(self) -> None:
        """Re-issue Subscribe for every registered pattern (deduplicated)."""
        replayed = set()
        for pattern, _compiled, _handler in self._handlers:
            if pattern in replayed:
                continue
            replayed.add(pattern)
            self._send_now(Subscribe(client_id=self.client_id, pattern=pattern))
            if pattern not in self._subscribe_timers:
                self._arm_subscribe_retry(pattern, 0)
        self.subscriptions_replayed += len(replayed)

    # --------------------------------------------------------- pub / sub

    def subscribe(self, pattern: str, handler: EventHandler) -> None:
        """Subscribe ``handler`` to events matching ``pattern``.

        The subscription request is retried until the broker acknowledges
        it, so subscriptions survive lossy control paths.  Multiple
        handlers may share one pattern; the broker-side subscription is
        issued once and withdrawn when the last handler is removed.
        """
        compiled = compile_pattern(pattern)
        self._handlers.append((pattern, compiled, handler))
        already_pending = pattern in self._subscribe_timers
        self._send(Subscribe(client_id=self.client_id, pattern=pattern))
        if not already_pending:
            self._arm_subscribe_retry(pattern, 0)

    def _arm_subscribe_retry(
        self, pattern: str, retries: int, delay_s: float = CONTROL_RETRY_S
    ) -> None:
        timer = self.sim.schedule(
            delay_s, self._retry_subscribe, pattern, retries
        )
        self._subscribe_timers[pattern] = timer

    def _retry_subscribe(self, pattern: str, retries: int) -> None:
        if pattern not in self._subscribe_timers:
            return
        if retries >= MAX_CONTROL_RETRIES or not any(
            p == pattern for (p, _c, _h) in self._handlers
        ):
            del self._subscribe_timers[pattern]
            return
        self._send(Subscribe(client_id=self.client_id, pattern=pattern))
        self._arm_subscribe_retry(pattern, retries + 1)

    def unsubscribe(
        self, pattern: str, handler: Optional[EventHandler] = None
    ) -> None:
        """Remove ``handler`` (or every handler when ``None``) from
        ``pattern``.  The broker-side Unsubscribe is only sent once the
        last handler registered under the pattern is gone, so bridges
        sharing a topic do not tear each other down."""
        if handler is None:
            self._handlers = [
                (p, c, h) for (p, c, h) in self._handlers if p != pattern
            ]
        else:
            removed = False
            remaining = []
            for entry in self._handlers:
                if not removed and entry[0] == pattern and entry[2] is handler:
                    removed = True
                    continue
                remaining.append(entry)
            self._handlers = remaining
        if any(p == pattern for (p, _c, _h) in self._handlers):
            return  # other handlers still rely on the subscription
        timer = self._subscribe_timers.pop(pattern, None)
        if timer is not None:
            timer.cancel()
        self._send(Unsubscribe(client_id=self.client_id, pattern=pattern))

    def publish(
        self,
        topic: str,
        payload: Any,
        size: int,
        reliable: bool = False,
        ordered: bool = False,
    ) -> NBEvent:
        """Publish an event; returns the event object (id, timestamps)."""
        validate_topic(topic)
        event = NBEvent(
            topic=topic,
            payload=payload,
            size=size,
            source=self.client_id,
            published_at=self.sim.now,
            reliable=reliable,
            ordered=ordered,
        )
        self.events_published += 1
        self._send(Publish(client_id=self.client_id, event=event))
        return event

    # ---------------------------------------------------------- internals

    def _send(self, message: Any) -> None:
        if not self.connected:
            self._pending.append((message, 0))
            return
        self._send_now(message)

    def _send_now(self, message: Any) -> None:
        if self._transport is None:
            raise RuntimeError(f"client {self.client_id} is not connected")
        size = message_size(message, self.envelope_bytes)
        self.host.cpu.execute(
            self.publish_cpu_cost_s, self._transport.send, message, size
        )

    def _on_message(self, message: Any) -> None:
        if isinstance(message, EventDelivery):
            self._on_event(message.event)
        elif isinstance(message, ConnectAck):
            self._on_connect_ack(message)
        elif isinstance(message, SubscribeAck):
            self.subscribe_acks += 1
            timer = self._subscribe_timers.pop(message.pattern, None)
            if timer is not None:
                timer.cancel()
        elif isinstance(message, HeartbeatAck):
            self._missed_heartbeats = 0
            self.heartbeats_acked += 1
        elif isinstance(message, Busy):
            self._on_busy(message)

    def _on_busy(self, message: Busy) -> None:
        """The broker refused admission: back off for at least the
        server-supplied ``retry_after_s`` instead of hammering it with
        the fixed control-retry cadence."""
        self.busy_rejections += 1
        if message.operation == "connect":
            if self._connect_timer is not None:
                self._connect_timer.cancel()
                self._connect_timer = None
            if self._reconnecting and self._failover_brokers:
                # Mid-failover: this candidate is overloaded — tear the
                # half-open transport down and let the shared backoff
                # (floored by the hint) pick the next candidate.
                if self._transport is not None:
                    transport, self._transport = self._transport, None
                    transport.close()
                self._failover_backoff.note_retry_after(message.retry_after_s)
                self._busy_hint_source = self._broker
                self._schedule_failover_attempt()
            else:
                # Initial connect with nowhere else to go: re-attempt
                # this broker once its own capacity estimate has passed.
                delay = max(message.retry_after_s, CONTROL_RETRY_S)
                self._connect_timer = self.sim.schedule(
                    delay, self._send_connect, self._link_type, 0
                )
        elif message.operation == "subscribe":
            # The refusal is broker-wide, not per-pattern: push every
            # pending subscribe retry out past the hint.
            delay = max(message.retry_after_s, CONTROL_RETRY_S)
            for pattern, timer in list(self._subscribe_timers.items()):
                timer.cancel()
                self._arm_subscribe_retry(pattern, 0, delay_s=delay)

    def _on_connect_ack(self, message: ConnectAck) -> None:
        if self.connected:
            return  # duplicate ack from a connect retry
        self.connected = True
        self.broker_id = message.broker_id
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        reconnecting, self._reconnecting = self._reconnecting, False
        self._failover_backoff.reset()
        self._missed_heartbeats = 0
        if reconnecting:
            # Replay before flushing queued publishes, so events queued
            # during the outage see the re-established subscriptions.
            self._replay_subscriptions()
        pending, self._pending = self._pending, []
        for queued, _ in pending:
            self._send_now(queued)
        if self.keepalive_interval_s is not None and self._keepalive_timer is None:
            self._arm_keepalive()
        if self._on_connected is not None:
            callback, self._on_connected = self._on_connected, None
            callback(self)
        if reconnecting:
            self.failovers += 1
            if self.on_failover is not None and self._broker is not None:
                self.on_failover(self, self._broker)

    def _on_event(self, event: NBEvent) -> None:
        if event.reliable:
            self._send_now(
                EventAck(client_id=self.client_id, event_id=event.event_id)
            )
            if not self._reliable_inbox.accept(event):
                return
        if event.sequence is not None:
            self._ordered_inbox.accept(event)
        else:
            self._dispatch(event)

    def _dispatch(self, event: NBEvent) -> None:
        self.events_received += 1
        if self._receive_latency is not None and not internal_topic(event.topic):
            self._receive_latency.observe(self.sim.now - event.published_at)
        handlers = self._handlers
        count = len(handlers)
        if handlers is not self._memo_of or count != self._memo_len:
            # subscribe appended, or unsubscribe rebound, since it was built
            self._memo, self._memo_of, self._memo_len = {}, handlers, count
        topic = event.topic
        matched = self._memo.get(topic)
        if matched is None:
            if len(self._memo) >= DISPATCH_MEMO_TOPICS:
                self._memo.clear()
            # Split once per topic, not once per handler pattern.
            topic_segments = topic[1:].split("/")
            matched = self._memo[topic] = []
            for _pattern, compiled, handler in handlers:
                if match_segments(compiled, topic_segments):
                    matched.append(handler)
        for handler in matched:
            handler(event)
        # A handler subscribed during this walk was appended to the list
        # being walked and sees the current event; an unsubscribe rebound
        # ``self._handlers`` and left this walk alone.
        while count < len(handlers):
            _pattern, compiled, handler = handlers[count]
            count += 1
            if match_segments(compiled, topic[1:].split("/")):
                handler(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.connected else "down"
        return f"<BrokerClient {self.client_id} {state}>"
