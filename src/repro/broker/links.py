"""Broker wire protocol and transport links.

NaradaBrokering "is able to provide services for TCP, UDP, Multicast, SSL
and raw RTP clients" and can communicate "through firewalls and proxies"
(Section 2.3).  This module defines:

* the control/data message vocabulary exchanged between clients and
  brokers and between peer brokers;
* broker-side **client links** (one per connected client) that know how to
  push an event copy to that client over its chosen transport;
* client-side **transports** that mirror them.

SSL is modeled on top of TCP with a record overhead per message and a
per-byte cryptography CPU cost on both endpoints; the HTTP tunnel link
rides :class:`repro.simnet.firewall.TunnelClient` through a proxy.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.broker.event import NBEvent
from repro.simnet.firewall import TunnelClient
from repro.simnet.node import Host
from repro.simnet.packet import Address, Datagram
from repro.simnet.tcp import TcpConnection, tcp_connect
from repro.simnet.transport import UDP_HEADER_BYTES
from repro.simnet.udp import UdpSocket


class LinkType(str, Enum):
    """Client link flavours supported by a broker."""

    UDP = "udp"
    TCP = "tcp"
    SSL = "ssl"
    HTTP_TUNNEL = "http-tunnel"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Fixed wire overhead of a broker control message.
CONTROL_BYTES = 64
#: Extra bytes per SSL record.
SSL_RECORD_OVERHEAD = 29
#: CPU cost per byte of SSL encryption/decryption.
SSL_CRYPTO_COST_PER_BYTE = 6e-9


# --------------------------------------------------------------------------
# Wire messages
# --------------------------------------------------------------------------


class WireMessage:
    """Base for broker wire messages: ``__slots__`` (no per-instance dict
    — these are allocated on every hot-path send) with dataclass-style
    equality and repr kept for tests and debugging.  :meth:`wire_size`
    is the one size rule of each class."""

    __slots__ = ()

    def wire_size(self, envelope_bytes: int) -> int:
        """Bytes on the wire: a fixed control header unless the class
        carries an event or a variable-length table."""
        return CONTROL_BYTES

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes: Any) -> "WireMessage":
        """A copy with ``changes`` applied (``dataclasses.replace``
        style): a flood forwards a copy, never the message it got."""
        copy = object.__new__(type(self))
        for name in self.__slots__:
            setattr(copy, name, changes.get(name, getattr(self, name)))
        return copy

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return other._astuple() == self._astuple()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({fields})"


class Connect(WireMessage):
    __slots__ = ("client_id", "link_type", "reply_to")

    def __init__(
        self,
        client_id: str,
        link_type: LinkType,
        reply_to: Optional[Address] = None,  # UDP-style links only
    ):
        self.client_id = client_id
        self.link_type = link_type
        self.reply_to = reply_to


class ConnectAck(WireMessage):
    __slots__ = ("client_id", "broker_id")

    def __init__(self, client_id: str, broker_id: str):
        self.client_id = client_id
        self.broker_id = broker_id


class Disconnect(WireMessage):
    __slots__ = ("client_id",)

    def __init__(self, client_id: str):
        self.client_id = client_id


class Subscribe(WireMessage):
    __slots__ = ("client_id", "pattern")

    def __init__(self, client_id: str, pattern: str):
        self.client_id = client_id
        self.pattern = pattern


class SubscribeAck(WireMessage):
    __slots__ = ("client_id", "pattern")

    def __init__(self, client_id: str, pattern: str):
        self.client_id = client_id
        self.pattern = pattern


class Unsubscribe(WireMessage):
    __slots__ = ("client_id", "pattern")

    def __init__(self, client_id: str, pattern: str):
        self.client_id = client_id
        self.pattern = pattern


class Busy(WireMessage):
    """Admission refusal from a SHEDDING broker (overload protection).

    ``operation`` names what was refused (``"connect"`` / ``"subscribe"``)
    and ``retry_after_s`` is the broker's capacity estimate — clients feed
    it into their shared :class:`~repro.util.backoff.ExponentialBackoff`
    as the floor of the next delay instead of hammering a hot broker.
    """

    __slots__ = ("client_id", "operation", "retry_after_s")

    def __init__(self, client_id: str, operation: str, retry_after_s: float):
        self.client_id = client_id
        self.operation = operation
        self.retry_after_s = retry_after_s


class Heartbeat(WireMessage):
    """Client liveness probe; the broker echoes a :class:`HeartbeatAck`."""

    __slots__ = ("client_id",)

    def __init__(self, client_id: str):
        self.client_id = client_id


class HeartbeatAck(WireMessage):
    __slots__ = ("client_id", "broker_id")

    def __init__(self, client_id: str, broker_id: str = ""):
        self.client_id = client_id
        self.broker_id = broker_id


class Publish(WireMessage):
    __slots__ = ("client_id", "event")

    def __init__(self, client_id: str, event: NBEvent):
        self.client_id = client_id
        self.event = event

    def wire_size(self, envelope_bytes: int) -> int:
        event = self.event
        return envelope_bytes + len(event.topic) + event.size


class EventDelivery(WireMessage):
    __slots__ = ("event",)

    def __init__(self, event: NBEvent):
        self.event = event

    wire_size = Publish.wire_size


class EventAck(WireMessage):
    __slots__ = ("client_id", "event_id")

    def __init__(self, client_id: str, event_id: int):
        self.client_id = client_id
        self.event_id = event_id


class PeerEvent(WireMessage):
    """Inter-broker event dissemination toward a set of target brokers."""

    __slots__ = ("event", "targets")

    def __init__(self, event: NBEvent, targets: FrozenSet[str]):
        self.event = event
        self.targets = targets

    @property
    def event_id(self) -> int:
        """The carried event's id: what a peer acks it by."""
        return self.event.event_id

    def wire_size(self, envelope_bytes: int) -> int:
        event = self.event
        return (
            envelope_bytes + len(event.topic) + event.size + 8 * len(self.targets)
        )


class SequenceRequest(WireMessage):
    """Forward an ordered publish to the topic's sequencing broker."""

    __slots__ = ("event", "origin_broker")

    def __init__(self, event: NBEvent, origin_broker: str):
        self.event = event
        self.origin_broker = origin_broker

    def wire_size(self, envelope_bytes: int) -> int:
        event = self.event
        return envelope_bytes + len(event.topic) + event.size + 16


class SubAdvert(WireMessage):
    """Flooded notice that ``origin_broker`` gained/lost interest in a
    pattern, as its ``seq``-th change of advertised interest.

    Like every flooded message it carries ``covered``: every broker the
    flood has already been sent to, the origin included (see
    :func:`repro.broker.epoch_table.flood`).  It goes on the wire.
    """

    __slots__ = ("origin_broker", "seq", "pattern", "add", "covered")

    def __init__(
        self,
        origin_broker: str = "",
        seq: int = 0,
        pattern: str = "",
        add: bool = True,
        covered: FrozenSet[str] = frozenset(),
    ):
        self.origin_broker = origin_broker
        self.seq = seq
        self.pattern = pattern
        self.add = add
        self.covered = covered

    def wire_size(self, envelope_bytes: int) -> int:
        return CONTROL_BYTES + 8 * len(self.covered)


class SubDigest(WireMessage):
    """Anti-entropy summary of a broker's subscription versions: origin
    → the newest version of that origin's interest held exactly.

    The receiver answers with a :class:`SubSnapshot` of every origin it
    holds at a strictly newer version, and with its own digest when it
    is strictly behind — the same terminating rule as
    :class:`LinkStateDigest`.
    """

    __slots__ = ("origin_broker", "versions")

    def __init__(
        self, origin_broker: str = "", versions: Optional[Dict[str, int]] = None
    ):
        self.origin_broker = origin_broker
        self.versions = versions if versions is not None else {}

    def wire_size(self, envelope_bytes: int) -> int:
        return CONTROL_BYTES + 12 * len(self.versions)


class SubSnapshot(WireMessage):
    """Whole interest of the origins a peer was behind on: ``entries``
    is ``(origin, seq, patterns)`` each, and each one replaces what the
    receiver held for that origin, removals included."""

    __slots__ = ("origin_broker", "entries")

    def __init__(self, origin_broker: str = "", entries: tuple = ()):
        self.origin_broker = origin_broker
        self.entries = entries

    def wire_size(self, envelope_bytes: int) -> int:
        return CONTROL_BYTES + sum(
            12 + sum(len(pattern) for pattern in patterns)
            for _origin, _seq, patterns in self.entries
        )


class ClusterInterestAdvert(WireMessage):
    """Aggregated interest summary one cluster exports to the others.

    Sent by a cluster's *active* gateway and flooded over the gateway
    overlay only (never into a cluster's member mesh): the summary is
    the prefix-collapsed union of every pattern the cluster's members
    are interested in (see :func:`repro.broker.topic.summarize_patterns`).
    Epoch-versioned per origin gateway so a newer summary fully replaces
    an older one; a replaced summary's stale patterns are withdrawn by
    diffing, not re-flooding.  Flooded by coverage (``covered``).
    """

    __slots__ = ("origin_gateway", "epoch", "patterns", "cluster_id", "covered")

    def __init__(
        self,
        origin_gateway: str = "",
        epoch: int = 0,
        patterns: tuple = (),
        cluster_id: str = "",
        covered: FrozenSet[str] = frozenset(),
    ):
        self.origin_gateway = origin_gateway
        self.epoch = epoch
        self.patterns = patterns
        self.cluster_id = cluster_id
        self.covered = covered

    def wire_size(self, envelope_bytes: int) -> int:
        patterns = sum(len(pattern) for pattern in self.patterns)
        return CONTROL_BYTES + patterns + 8 * len(self.covered)


class ClusterDigest(WireMessage):
    """Anti-entropy summary of a gateway's cluster-tier databases.

    Carries the epoch of every known gateway-tier
    :class:`LinkStateAdvert` and :class:`ClusterInterestAdvert`; the receiver pushes back anything it
    holds at a strictly newer epoch (and answers with its own digest
    when strictly behind — the same terminating reconciliation rule as
    :class:`LinkStateDigest`, one tier up).
    """

    __slots__ = ("origin_gateway", "lsa_epochs", "interest_epochs")

    def __init__(
        self,
        origin_gateway: str = "",
        lsa_epochs: Optional[Dict[str, int]] = None,
        interest_epochs: Optional[Dict[str, int]] = None,
    ):
        self.origin_gateway = origin_gateway
        self.lsa_epochs = lsa_epochs if lsa_epochs is not None else {}
        self.interest_epochs = (
            interest_epochs if interest_epochs is not None else {}
        )

    def wire_size(self, envelope_bytes: int) -> int:
        return CONTROL_BYTES + 12 * (
            len(self.lsa_epochs) + len(self.interest_epochs)
        )


class PeerHeartbeat(WireMessage):
    """Broker-to-broker liveness beacon over an established peer link.

    Unlike the client :class:`Heartbeat` there is no ack: both sides beat
    symmetrically, so each incoming beat (or any other peer traffic)
    refreshes the sender's liveness and a configurable run of silent
    intervals declares the peer dead.
    """

    __slots__ = ("origin_broker",)

    def __init__(self, origin_broker: str):
        self.origin_broker = origin_broker


class LinkStateAdvert(WireMessage):
    """Flooded link-state advert: one broker's current adjacency + epoch.

    Brokers accept an LSA only when its epoch exceeds the one recorded for
    the origin, forward it by coverage (to their peers outside
    ``covered``), and recompute next-hop tables locally from the
    resulting link-state database.

    ``costs`` is the optional WAN extension (PR 10): a mapping of
    neighbor → integer cost class.  ``None`` — the default, and the only
    value a geo-unaware broker ever sends — is wire-size-identical to
    the pre-cost advert; receivers treat a missing entry as cost 1.

    ``cluster_id`` names the tier: ``None`` for a member LSA (flooded
    inside one cluster, or across a flat mesh), the origin's cluster for
    a gateway LSA (flooded over the gateway overlay — inter-cluster links
    plus co-gateway links — so gateways learn cluster-level reachability).
    """

    __slots__ = ("origin_broker", "epoch", "neighbors", "costs", "cluster_id",
                 "covered")

    def __init__(
        self,
        origin_broker: str = "",
        epoch: int = 0,
        neighbors: FrozenSet[str] = frozenset(),
        costs: Optional[Dict[str, int]] = None,
        cluster_id: Optional[str] = None,
        covered: FrozenSet[str] = frozenset(),
    ):
        self.origin_broker = origin_broker
        self.epoch = epoch
        self.neighbors = neighbors
        self.costs = costs
        self.cluster_id = cluster_id
        self.covered = covered

    def wire_size(self, envelope_bytes: int) -> int:
        costs = 2 * len(self.costs) if self.costs else 0
        return (
            CONTROL_BYTES + 8 * (len(self.neighbors) + len(self.covered)) + costs
        )


class SequencerPin(WireMessage):
    """Flooded locality pin: ``topic``'s ordered stream now sequences at
    ``broker``.

    Emitted by the *current* sequencer when it observes a sustained
    publisher majority nearer another broker (locality election).
    Epoch-versioned per topic — a higher epoch fully replaces a lower
    one, ties break toward the lexicographically smaller broker so every
    replica converges on the same pin.  ``next_sequence`` hands the
    stream's sequence counter to the new sequencer, keeping numbering
    continuous across the handoff.  Flooded by coverage (``covered``)
    and repaired through the :class:`LinkStateDigest`'s ``pins``.
    """

    __slots__ = ("topic", "broker", "epoch", "next_sequence", "origin_broker",
                 "covered")

    def __init__(
        self,
        topic: str = "",
        broker: str = "",
        epoch: int = 0,
        next_sequence: int = 0,
        origin_broker: str = "",
        covered: FrozenSet[str] = frozenset(),
    ):
        self.topic = topic
        self.broker = broker
        self.epoch = epoch
        self.next_sequence = next_sequence
        self.origin_broker = origin_broker
        self.covered = covered

    def wire_size(self, envelope_bytes: int) -> int:
        names = len(self.topic) + len(self.broker)
        return CONTROL_BYTES + names + 16 + 8 * len(self.covered)


class LinkStateDigest(WireMessage):
    """Anti-entropy summary of a broker's link-state database, with its
    subscription versions (what a :class:`SubDigest` carries) and, on a
    geo broker, its sequencer pins (topic → (epoch, broker)) riding
    along.

    Sent when a peer link comes up (partition heal) and periodically with
    heartbeats; the receiver pushes back any LSA or pin it holds at a
    strictly newer version, and a snapshot of any origin's interest it
    holds at a strictly newer version, which is how divergent halves of
    a healed partition reconcile without re-flooding everything.
    """

    __slots__ = ("origin_broker", "epochs", "versions", "pins")

    def __init__(
        self,
        origin_broker: str = "",
        epochs: Optional[Dict[str, int]] = None,
        versions: Optional[Dict[str, int]] = None,
        pins: Optional[Dict[str, Tuple[int, str]]] = None,
    ):
        self.origin_broker = origin_broker
        self.epochs = epochs if epochs is not None else {}
        self.versions = versions if versions is not None else {}
        self.pins = pins  # None without the geo plane: never pushed any

    def wire_size(self, envelope_bytes: int) -> int:
        pins = sum(
            8 + len(topic) + len(broker)
            for topic, (_, broker) in (self.pins or {}).items()
        )
        return CONTROL_BYTES + 12 * (len(self.epochs) + len(self.versions)) + pins


# --------------------------------------------------------------------------
# Broker-side client links
# --------------------------------------------------------------------------


class ClientLink:
    """Broker-side handle used to push messages to one connected client."""

    __slots__ = ("client_id", "envelope_bytes", "events_sent", "bytes_sent")

    kind: LinkType = LinkType.UDP
    #: ``send_sized`` only hands one datagram to the host (no CPU work, no
    #: timer), so fan-out may queue it with ``Cpu.execute_train``.
    datagram = False

    def __init__(self, client_id: str, envelope_bytes: int):
        self.client_id = client_id
        self.envelope_bytes = envelope_bytes
        self.events_sent = 0
        self.bytes_sent = 0

    def send(self, message: Any) -> None:
        size = message.wire_size(self.envelope_bytes)
        if isinstance(message, EventDelivery):
            self.events_sent += 1
        self.bytes_sent += size
        self._transmit(message, size)

    def send_sized(self, delivery: "EventDelivery", size: int) -> None:
        """Zero-copy fan-out fast path.

        The broker precomputes the wire size once and shares a single
        :class:`EventDelivery` across every destination, so this skips the
        per-destination ``wire_size`` call.  Only event
        deliveries come through here.
        """
        self.events_sent += 1
        self.bytes_sent += size
        self._transmit(delivery, size)

    def _transmit(self, message: Any, size: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (optional per link type)."""


class UdpClientLink(ClientLink):
    """Datagram link: also used for clients reached through HTTP tunnels,
    whose datagrams arrive via the proxy relay's address."""

    __slots__ = ("kind", "_socket", "client_address")

    datagram = True

    def __init__(
        self,
        client_id: str,
        envelope_bytes: int,
        socket: UdpSocket,
        client_address: Address,
        kind: LinkType = LinkType.UDP,
    ):
        super().__init__(client_id, envelope_bytes)
        self.kind = kind
        self._socket = socket
        self.client_address = client_address

    def _transmit(self, message: Any, size: int) -> None:
        socket = self._socket
        if socket.closed:
            return  # broker crashed between scheduling and sending
        # Inlined socket.sendto: one fewer frame, same accounting.
        socket.sent_packets += 1
        socket.host.send(
            socket.port, self.client_address, message, size + UDP_HEADER_BYTES
        )

    def send_sized(self, delivery: "EventDelivery", size: int) -> None:
        """``send_sized`` with ``_transmit`` folded in: one frame from
        CPU to ``Host.send`` on the fan-out path.  The broker's client
        record holds the one bound method every fan-out plan shares (a
        link holding its own would be a cycle, freed only by the
        collector)."""
        self.events_sent += 1
        self.bytes_sent += size
        socket = self._socket
        if socket.closed:
            return
        socket.sent_packets += 1
        socket.host.send(
            socket.port, self.client_address, delivery, size + UDP_HEADER_BYTES
        )


class TcpClientLink(ClientLink):
    __slots__ = ("connection",)

    kind = LinkType.TCP

    def __init__(self, client_id: str, envelope_bytes: int, connection: TcpConnection):
        super().__init__(client_id, envelope_bytes)
        self.connection = connection

    def _transmit(self, message: Any, size: int) -> None:
        if self.connection.established or self.connection.state in (
            TcpConnection.SYN_RCVD,
        ):
            self.connection.send(message, size)

    def close(self) -> None:
        self.connection.close()


class SslClientLink(TcpClientLink):
    """TCP link plus record overhead and per-byte crypto CPU cost."""

    __slots__ = ("_host",)

    kind = LinkType.SSL

    def __init__(
        self,
        client_id: str,
        envelope_bytes: int,
        connection: TcpConnection,
        host: Host,
    ):
        super().__init__(client_id, envelope_bytes, connection)
        self._host = host

    def _transmit(self, message: Any, size: int) -> None:
        size += SSL_RECORD_OVERHEAD
        crypto_cost = size * SSL_CRYPTO_COST_PER_BYTE
        self._host.cpu.execute(
            crypto_cost, super()._transmit, message, size
        )


# --------------------------------------------------------------------------
# Client-side transports
# --------------------------------------------------------------------------


class ClientTransport:
    """Client-side counterpart of a :class:`ClientLink`."""

    __slots__ = ("on_message", "on_event", "on_ready", "on_lost", "killed")

    kind: LinkType = LinkType.UDP

    def __init__(self) -> None:
        self.on_message: Optional[Callable[[Any], None]] = None
        #: Takes a plain event (neither reliable nor sequenced) straight
        #: from an :class:`EventDelivery`; a transport may route one there
        #: instead of through ``on_message``.
        self.on_event: Optional[Callable[[NBEvent], None]] = None
        self.on_ready: Optional[Callable[[], None]] = None
        #: Called with this transport when a send finds the link gone.
        self.on_lost: Optional[Callable[["ClientTransport"], None]] = None
        self.killed = False

    def start(self) -> None:
        """Begin connection setup; ``on_ready`` fires when sends may begin."""
        raise NotImplementedError  # pragma: no cover

    def send(self, message: Any, size: int) -> None:
        raise NotImplementedError  # pragma: no cover

    def reply_address(self) -> Optional[Address]:
        """Address the broker should send to (UDP-style links only)."""
        return None

    def close(self) -> None:
        """Release sockets/connections."""

    def kill(self) -> None:
        """Silent process death: close, and swallow any writes already
        queued on the CPU — a dead process's buffered output never hits
        the wire (chaos injection; see :meth:`BrokerClient.kill`)."""
        self.killed = True
        self.close()


class UdpClientTransport(ClientTransport):
    __slots__ = ("_socket", "_broker")

    kind = LinkType.UDP

    def __init__(self, host: Host, broker_udp: Address):
        super().__init__()
        self._socket = socket = UdpSocket(host)
        self._broker = broker_udp
        # Take the port over from the socket: one frame from CPU to on_message.
        host.rebind(socket.port, self._on_datagram)

    def start(self) -> None:
        if self.on_ready is not None:
            self.on_ready()

    def reply_address(self) -> Optional[Address]:
        return self._socket.local_address

    def send(self, message: Any, size: int) -> None:
        # A send queued on the CPU before the client closed this
        # transport (a kill, a reconnect) finds its socket gone: drop it.
        if self.killed or self._socket.closed:
            return
        self._socket.sendto(message, size, self._broker)

    def _on_datagram(self, datagram: Datagram) -> None:
        socket = self._socket
        if socket.closed:
            return
        socket.received_packets += 1
        message = datagram.payload
        if message.__class__ is EventDelivery and self.on_event is not None:
            event = message.event
            if not event.reliable and event.sequence is None:
                self.on_event(event)
                return
        if self.on_message is not None:
            self.on_message(message)

    def close(self) -> None:
        self._socket.close()
        # A closed socket hands nothing over: the owner's callbacks go, so
        # the owner and this transport do not hold each other.  (A stream
        # transport keeps them: a message already reassembled or queued
        # for decryption may still reach them.)
        self.on_message = self.on_event = self.on_ready = self.on_lost = None


class TcpClientTransport(ClientTransport):
    __slots__ = ("_host", "_broker", "_connection")

    kind = LinkType.TCP

    def __init__(self, host: Host, broker_tcp: Address):
        super().__init__()
        self._host = host
        self._broker = broker_tcp
        self._connection: Optional[TcpConnection] = None

    def start(self) -> None:
        self._connection = tcp_connect(
            self._host,
            self._broker,
            on_established=lambda conn: self.on_ready and self.on_ready(),
            on_message=lambda msg, size, conn: (
                self.on_message(msg) if self.on_message else None
            ),
        )

    def send(self, message: Any, size: int) -> None:
        if self.killed:
            return
        connection = self._connection
        if connection is None:
            raise RuntimeError("transport not started")
        if connection.state in (TcpConnection.FINISHED, TcpConnection.FAILED):
            # The broker end closed (crash, shutdown) or retransmission
            # gave up: drop the write and report the link lost.
            if self.on_lost is not None:
                self.on_lost(self)
            return
        connection.send(message, size)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()


class SslClientTransport(TcpClientTransport):
    """TCP transport plus simulated TLS handshake and record costs."""

    __slots__ = ()

    kind = LinkType.SSL

    #: Extra round trips for the TLS handshake after TCP establishment.
    HANDSHAKE_DELAY_S = 0.004

    def start(self) -> None:
        inner_ready = self.on_ready

        def after_tcp(conn: TcpConnection) -> None:
            # Model the TLS handshake as a fixed extra delay before the
            # transport reports ready.
            self._host.sim.schedule(
                self.HANDSHAKE_DELAY_S, lambda: inner_ready and inner_ready()
            )

        self._connection = tcp_connect(
            self._host,
            self._broker,
            on_established=after_tcp,
            on_message=self._decrypt,
        )

    def send(self, message: Any, size: int) -> None:
        if self.killed:
            return
        size += SSL_RECORD_OVERHEAD
        self._host.cpu.execute(
            size * SSL_CRYPTO_COST_PER_BYTE, super().send, message, size
        )

    def _decrypt(self, message: Any, size: int, conn: TcpConnection) -> None:
        self._host.cpu.execute(
            size * SSL_CRYPTO_COST_PER_BYTE,
            lambda: self.on_message(message) if self.on_message else None,
        )


class TunnelClientTransport(ClientTransport):
    """UDP-style transport through an HTTP tunnel proxy (firewall escape).

    Sends periodic keepalives toward the proxy so the firewall pinhole for
    the return path never expires — the datagram-model equivalent of the
    persistent HTTP connection a real tunnel holds open.
    """

    __slots__ = (
        "_host", "_tunnel", "_proxy", "_broker", "_closed", "_keepalive_timer",
    )

    kind = LinkType.HTTP_TUNNEL

    KEEPALIVE_INTERVAL_S = 20.0
    KEEPALIVE_BYTES = 32

    def __init__(self, host: Host, broker_udp: Address, proxy: Address):
        super().__init__()
        self._host = host
        self._tunnel = TunnelClient(host, proxy)
        self._proxy = proxy
        self._broker = broker_udp
        self._tunnel.on_receive(self._on_frame)
        self._closed = False
        self._keepalive_timer = None

    def start(self) -> None:
        self._schedule_keepalive()
        if self.on_ready is not None:
            self.on_ready()

    def _schedule_keepalive(self) -> None:
        self._keepalive_timer = self._host.sim.schedule(
            self.KEEPALIVE_INTERVAL_S, self._keepalive
        )

    def _keepalive(self) -> None:
        if self._closed:
            return
        # A bare (non-TunnelFrame) datagram: the proxy discards it, but the
        # client's firewall refreshes the proxy pinhole on the way out.
        self._tunnel.socket.sendto(
            "tunnel-keepalive", self.KEEPALIVE_BYTES, self._proxy
        )
        self._schedule_keepalive()

    def reply_address(self) -> Optional[Address]:
        # The broker replies to the proxy relay; the relay address is only
        # known proxy-side, so the broker learns it from the datagram source
        # (handled in Broker._on_udp_message via reply_to=None).
        return None

    def send(self, message: Any, size: int) -> None:
        self._tunnel.sendto(message, size, self._broker)

    def _on_frame(self, payload: Any, inner_src: Address) -> None:
        if self.on_message is not None:
            self.on_message(payload)

    def close(self) -> None:
        self._closed = True
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
        self._tunnel.close()
