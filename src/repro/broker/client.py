"""Publish/subscribe client API.

A :class:`BrokerClient` is the JMS-like client-server face of the
middleware: connect to a broker over a chosen link type, subscribe with
wildcard patterns, publish events.  Operations issued before the connect
handshake completes are queued and flushed on ``ConnectAck``.

Failover (the paper's "dynamic broker collections" surviving broker
churn) is one frozen :class:`Failover` value given at construction: the
client probes broker liveness over the control plane; when the link goes
dark it tears the transport down, resets inbox state coherently, and —
if the value names candidate brokers — reconnects with exponential
backoff, re-issuing ``Connect`` and replaying every registered
subscription on the new broker.  The RTP proxies, XGSP clients, H.323/SIP
gateways and telemetry roles take the same value and pass it through;
the ``on_disconnected``/``on_failover`` callbacks let them re-establish
their bridges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
)
from repro.broker.reliable import OrderedInbox, ReliableInbox
from repro.broker.topic import compile_pattern, match_segments, validate_topic
from repro.simnet.kernel import Timer
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

#: Wire overhead a client adds to each message it sends.
ENVELOPE_BYTES = 66

#: Default keepalive probe cadence once enabled.
KEEPALIVE_INTERVAL_S = 1.0
#: Consecutive unacknowledged probes before the link is declared dead.
KEEPALIVE_MISS_LIMIT = 3
#: Exponential-backoff ceiling between failover reconnect attempts.
FAILOVER_MAX_BACKOFF_S = 8.0


@dataclass(frozen=True)
class Failover:
    """How a client survives losing its broker: probe the link every
    ``keepalive_s`` seconds, declare it dead after ``miss_limit``
    unanswered probes, then reconnect to ``brokers`` in turn (none: the
    loss is detected and the client stays down)."""

    brokers: Tuple[Broker, ...] = ()
    keepalive_s: float = KEEPALIVE_INTERVAL_S
    miss_limit: int = KEEPALIVE_MISS_LIMIT

    def __post_init__(self) -> None:
        object.__setattr__(self, "brokers", tuple(self.brokers))
        if self.keepalive_s <= 0 or self.miss_limit < 1:
            raise ValueError(
                "failover needs keepalive_s > 0 and miss_limit >= 1, got "
                f"{self.keepalive_s!r} and {self.miss_limit!r}"
            )


class _DispatchMemo(dict):
    """topic -> the handlers matching it, for one state of the handler
    list: ``handlers`` at length ``count``.  Subscribe and unsubscribe
    start a new memo, so a dispatch that finds its memo replaced knows a
    handler changed the list under it."""

    __slots__ = ("handlers", "count")

    def __init__(self, handlers: List[Tuple[str, Tuple[str, ...], EventHandler]]):
        super().__init__()
        self.handlers = handlers
        self.count = len(handlers)


class BrokerClient:
    """One collaboration endpoint attached to the broker network.

    What only some clients use is made on first use: the failover
    backoff, the subscribe-retry table, the unsubscribe-on-ack set, the
    queue of messages sent before the connect completes, and the inboxes.
    """

    # ``__dict__`` only for tests that wrap a method on one client;
    # CPython makes it when something is stored there.
    __slots__ = (
        "host",
        "sim",
        "client_id",
        "publish_cpu_cost_s",
        "connected",
        "broker_id",
        "failover",
        "on_disconnected",
        "on_failover",
        "_transport",
        "_handlers",
        "_memo",
        "_pending",
        "_on_connected",
        "_reliable_inbox",
        "_ordered_inbox",
        "_connect_timer",
        "_subscribe_timers",
        "_unsubscribe_on_ack",
        "_keepalive_timer",
        "_missed_heartbeats",
        "_failover_backoff",
        "_failover_timer",
        "_reconnecting",
        "_busy_hint_source",
        "_broker",
        "_link_type",
        "_proxy_address",
        "events_published",
        "events_received",
        "subscribe_acks",
        "heartbeats_sent",
        "heartbeats_acked",
        "link_losses",
        "failovers",
        "subscriptions_replayed",
        "busy_rejections",
        "__dict__",
    )

    def __init__(
        self,
        host: Host,
        client_id: str,
        publish_cpu_cost_s: float = 8e-6,
        failover: Optional[Failover] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.client_id = client_id
        self.publish_cpu_cost_s = publish_cpu_cost_s
        self.connected = False
        self.broker_id: Optional[str] = None
        #: Keepalive and reconnect candidates; ``None`` does neither.
        self.failover = failover
        #: Fired (with the client) when the link to the broker is lost.
        self.on_disconnected: Optional[Callable[["BrokerClient"], None]] = None
        #: Fired (client, new_broker) after a reconnect fully completes —
        #: the subscription replay has already been issued at that point.
        self.on_failover: Optional[
            Callable[["BrokerClient", Broker], None]
        ] = None
        self._transport: Optional[ClientTransport] = None
        self._handlers: List[Tuple[str, Tuple[str, ...], EventHandler]] = []
        self._memo = _DispatchMemo(self._handlers)
        #: Messages sent before the connect completed (None: none yet).
        self._pending: Optional[List[Any]] = None
        self._on_connected: Optional[Callable[["BrokerClient"], None]] = None
        # Made on the first reliable / ordered event: most clients get none.
        self._reliable_inbox: Optional[ReliableInbox] = None
        self._ordered_inbox: Optional[OrderedInbox] = None
        self._connect_timer = None
        #: pattern -> its armed Subscribe retry (None while there is none).
        self._subscribe_timers: Optional[Dict[str, Timer]] = None
        #: Patterns given up while their Subscribe was unacknowledged:
        #: each one's Unsubscribe goes out with its SubscribeAck, so it
        #: cannot overtake the Subscribe on the way to the broker (None
        #: while there is none).
        self._unsubscribe_on_ack: Optional[Set[str]] = None
        self._keepalive_timer = None
        self._missed_heartbeats = 0
        #: Made by the first failover (None: never failed over).
        self._failover_backoff: Optional[ExponentialBackoff] = None
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
        transport.on_event = self._dispatch  # what _on_event does for it
        transport.on_ready = lambda: self._send_connect(link_type, 0)
        transport.on_lost = self._on_transport_lost
        transport.start()

    def _send_connect(self, link_type: LinkType, attempt: int) -> None:
        if self.connected or self._transport is None:
            return
        if attempt > MAX_CONTROL_RETRIES:
            if self._reconnecting:
                # This failover candidate never answered: tear the
                # half-open transport down and try the next one.
                self._drop_transport().close()
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
        # A Connect still awaiting its ack may yet register us: withdraw
        # it too.  Jitter can carry this Disconnect past that Connect, so
        # the link stays open for the Connect's ack, which is answered
        # with a Disconnect as well (see _on_replaced_message).
        connecting = self._connect_timer is not None
        self._cancel_control_timers()
        if self.connected or connecting:
            self._send_now(Disconnect(client_id=self.client_id))
        self.connected = False
        self.broker_id = None
        # Give the Disconnect message a moment on the wire before closing.
        linger_s = CONTROL_RETRY_S if connecting else 0.05
        self.sim.schedule(linger_s, self._drop_transport().close)

    def _drop_transport(self) -> ClientTransport:
        """Let go of the current transport.  What still reaches it is
        handled as before, except a ConnectAck: that answers a replaced
        link, so it never marks the client connected, and it is answered
        with a Disconnect unless the client is attaching to that broker
        again (whose new Connect supersedes the old one)."""
        transport, self._transport = self._transport, None
        transport.on_message = lambda message: self._on_replaced_message(
            message, transport
        )
        return transport

    def _on_replaced_message(
        self, message: Any, transport: ClientTransport
    ) -> None:
        if message.__class__ is not ConnectAck:
            self._on_message(message)
        elif (
            self._transport is None
            or message.broker_id != self._broker.broker_id
        ):
            withdraw = Disconnect(client_id=self.client_id)
            self.host.cpu.execute(
                self.publish_cpu_cost_s,
                transport.send,
                withdraw,
                withdraw.wire_size(ENVELOPE_BYTES),
            )

    def _cancel_control_timers(self) -> None:
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        if self._subscribe_timers is not None:
            for timer in self._subscribe_timers.values():
                timer.cancel()
            self._subscribe_timers = None
        self._unsubscribe_on_ack = None
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
            self._keepalive_timer = None

    def _cancel_failover(self) -> None:
        self._reconnecting = False
        self._busy_hint_source = None
        self._failover_backoff = None  # a reset backoff is a new one
        if self._failover_timer is not None:
            self._failover_timer.cancel()
            self._failover_timer = None

    # --------------------------------------------------------- liveness

    def _arm_keepalive(self) -> None:
        self._keepalive_timer = self.sim.schedule(
            self.failover.keepalive_s, self._keepalive_tick
        )

    def _keepalive_tick(self) -> None:
        self._keepalive_timer = None
        if not self.connected or self._transport is None:
            return
        if self._missed_heartbeats >= self.failover.miss_limit:
            self._on_link_lost()
            return
        self._missed_heartbeats += 1
        self.heartbeats_sent += 1
        self._send_now(Heartbeat(client_id=self.client_id))
        self._arm_keepalive()

    def _on_transport_lost(self, transport: ClientTransport) -> None:
        """A send found the broker end of a stream link closed.  Sends
        queued on the CPU can still reach a transport already replaced,
        so only the current one counts."""
        if transport is self._transport:
            self._on_link_lost()

    def _on_link_lost(self) -> None:
        """The broker stopped answering: tear down and begin failover."""
        if self._transport is None:
            return
        self.link_losses += 1
        self._cancel_control_timers()
        self.connected = False
        self.broker_id = None
        self._drop_transport().close()
        # Sequence expectations belong to the dead broker's sequencers.
        self._reset_ordering()
        if self.on_disconnected is not None:
            self.on_disconnected(self)
        self._failover_backoff = None
        self._schedule_failover_attempt()

    def _schedule_failover_attempt(self) -> None:
        brokers = self.failover.brokers if self.failover is not None else ()
        if not brokers:
            return
        # The broker whose link just died is the worst candidate: try the
        # others first (unless it is the only one we know).
        candidates = [
            broker for broker in brokers if broker is not self._broker
        ] or brokers
        backoff = self._backoff()
        attempt = backoff.attempts
        broker = candidates[attempt % len(candidates)]
        if (
            self._busy_hint_source is not None
            and broker is not self._busy_hint_source
        ):
            # The retry-after hint measured one overloaded (or since-
            # dead) broker's capacity; it must not floor the delay of
            # an attempt toward a different candidate — possibly in a
            # different region entirely.
            backoff.clear_hint()
        self._busy_hint_source = None
        delay = backoff.next_delay()
        self._failover_timer = self.sim.schedule(
            delay, self._attempt_reconnect, broker
        )

    def _backoff(self) -> ExponentialBackoff:
        """The failover backoff, made by the first failover."""
        if self._failover_backoff is None:
            self._failover_backoff = ExponentialBackoff(
                CONTROL_RETRY_S, FAILOVER_MAX_BACKOFF_S, first_immediate=True
            )
        return self._failover_backoff

    def _attempt_reconnect(self, broker: Broker) -> None:
        self._failover_timer = None
        self._reconnecting = True
        if self._transport is not None:  # stale half-open attempt
            self._drop_transport().close()
        self.connect(broker, self._link_type, self._proxy_address)

    def kill(self) -> None:
        """Silent process death (chaos injection): tear the transport
        down with no Disconnect, no failover, no callbacks.  The broker
        learns nothing — reaping or outbox abandonment must notice."""
        self._cancel_failover()
        self._cancel_control_timers()
        self.connected = False
        self.broker_id = None
        self._pending = None
        if self._transport is not None:
            self._drop_transport().kill()

    def reconnect(self, broker: Broker) -> None:
        """Manually fail over to ``broker``: tear down the current
        transport (without a Disconnect — the old broker is presumed
        dead), re-issue Connect, and replay every subscription."""
        self._cancel_failover()
        self._cancel_control_timers()
        self.connected = False
        self.broker_id = None
        if self._transport is not None:
            self._drop_transport().close()
        self._reset_ordering()
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
            if pattern not in (self._subscribe_timers or ()):
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
        self._memo = _DispatchMemo(self._handlers)
        if self._unsubscribe_on_ack is not None:
            self._unsubscribe_on_ack.discard(pattern)
        already_pending = pattern in (self._subscribe_timers or ())
        self._send(Subscribe(client_id=self.client_id, pattern=pattern))
        if not already_pending:
            self._arm_subscribe_retry(pattern, 0)

    def _arm_subscribe_retry(
        self, pattern: str, retries: int, delay_s: float = CONTROL_RETRY_S
    ) -> None:
        timer = self.sim.schedule(
            delay_s, self._retry_subscribe, pattern, retries
        )
        if self._subscribe_timers is None:
            self._subscribe_timers = {}
        self._subscribe_timers[pattern] = timer

    def _take_subscribe_timer(self, pattern: str) -> Optional[Timer]:
        """Remove the pattern's armed Subscribe retry and return it; the
        table goes once it is empty."""
        timers = self._subscribe_timers
        if timers is None:
            return None
        timer = timers.pop(pattern, None)
        if not timers:
            self._subscribe_timers = None
        return timer

    def _retry_subscribe(self, pattern: str, retries: int) -> None:
        if pattern not in (self._subscribe_timers or ()):
            return
        if retries >= MAX_CONTROL_RETRIES or not any(
            p == pattern for (p, _c, _h) in self._handlers
        ):
            self._take_subscribe_timer(pattern)
            return
        self._send(Subscribe(client_id=self.client_id, pattern=pattern))
        self._arm_subscribe_retry(pattern, retries + 1)

    def unsubscribe(
        self, pattern: str, handler: Optional[EventHandler] = None
    ) -> None:
        """Remove ``handler`` (or every handler when ``None``) from
        ``pattern``.  The broker-side Unsubscribe is only sent once the
        last handler registered under the pattern is gone, so bridges
        sharing a topic do not tear each other down, and not before the
        broker acknowledged the pattern's Subscribe."""
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
        self._memo = _DispatchMemo(self._handlers)
        if any(p == pattern for (p, _c, _h) in self._handlers):
            return  # other handlers still rely on the subscription
        timer = self._take_subscribe_timer(pattern)
        if timer is not None:
            timer.cancel()
            if self._unsubscribe_on_ack is None:
                self._unsubscribe_on_ack = set()
            self._unsubscribe_on_ack.add(pattern)
            return
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
            if self._pending is None:
                self._pending = []
            self._pending.append(message)
            return
        self._send_now(message)

    def _send_now(self, message: Any) -> None:
        if self._transport is None:
            raise RuntimeError(f"client {self.client_id} is not connected")
        size = message.wire_size(ENVELOPE_BYTES)
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
            pattern = message.pattern
            timer = self._take_subscribe_timer(pattern)
            if timer is not None:
                timer.cancel()
            if pattern in (self._unsubscribe_on_ack or ()):
                self._unsubscribe_on_ack.discard(pattern)
                self._send(Unsubscribe(client_id=self.client_id, pattern=pattern))
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
            if self._reconnecting and self.failover and self.failover.brokers:
                # Mid-failover: this candidate is overloaded — tear the
                # half-open transport down and let the shared backoff
                # (floored by the hint) pick the next candidate.
                if self._transport is not None:
                    self._drop_transport().close()
                self._backoff().note_retry_after(message.retry_after_s)
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
            for pattern, timer in list((self._subscribe_timers or {}).items()):
                timer.cancel()
                self._arm_subscribe_retry(pattern, 0, delay_s=delay)

    def _on_connect_ack(self, message: ConnectAck) -> None:
        if self.connected:
            return  # a duplicate ack from a connect retry
        self.connected = True
        self.broker_id = message.broker_id
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        reconnecting, self._reconnecting = self._reconnecting, False
        self._failover_backoff = None
        self._missed_heartbeats = 0
        if reconnecting:
            # Replay before flushing queued publishes, so events queued
            # during the outage see the re-established subscriptions.
            self._replay_subscriptions()
        pending, self._pending = self._pending, None
        for queued in pending or ():
            self._send_now(queued)
        if self.failover is not None and self._keepalive_timer is None:
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
            if self._reliable_inbox is None:
                self._reliable_inbox = ReliableInbox()
            if not self._reliable_inbox.accept(event):
                return
        if event.sequence is not None:
            if self._ordered_inbox is None:
                self._ordered_inbox = OrderedInbox(self.sim, self._dispatch)
            self._ordered_inbox.accept(event)
        else:
            self._dispatch(event)

    def _reset_ordering(self) -> None:
        if self._ordered_inbox is not None:
            self._ordered_inbox.reset()

    def _dispatch(self, event: NBEvent) -> None:
        self.events_received += 1
        memo = self._memo
        topic = event.topic
        matched = memo.get(topic)
        if matched is None:
            if len(memo) >= DISPATCH_MEMO_TOPICS:
                memo.clear()
            # Split once per topic, not once per handler pattern.
            topic_segments = topic[1:].split("/")
            matched = memo[topic] = []
            for _pattern, compiled, handler in memo.handlers:
                if match_segments(compiled, topic_segments):
                    matched.append(handler)
        for handler in matched:
            handler(event)
        if self._memo is not memo:
            # A handler subscribed or unsubscribed during this walk.  One
            # subscribed was appended to the list being walked and sees the
            # current event; an unsubscribe rebound ``self._handlers`` and
            # left this walk alone.
            handlers, count = memo.handlers, memo.count
            while count < len(handlers):
                _pattern, compiled, handler = handlers[count]
                count += 1
                if match_segments(compiled, topic[1:].split("/")):
                    handler(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.connected else "down"
        return f"<BrokerClient {self.client_id} {state}>"
