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

import itertools
from enum import Enum
from typing import Any, Callable, Dict, FrozenSet, Optional

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

_advert_ids = itertools.count(1)


# --------------------------------------------------------------------------
# Wire messages
# --------------------------------------------------------------------------


class WireMessage:
    """Base for broker wire messages: ``__slots__`` (no per-instance dict
    — these are allocated on every hot-path send) with dataclass-style
    equality and repr kept for tests and debugging."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

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


class EventDelivery(WireMessage):
    __slots__ = ("event",)

    def __init__(self, event: NBEvent):
        self.event = event


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


class SequenceRequest(WireMessage):
    """Forward an ordered publish to the topic's sequencing broker."""

    __slots__ = ("event", "origin_broker")

    def __init__(self, event: NBEvent, origin_broker: str):
        self.event = event
        self.origin_broker = origin_broker


class SubAdvert(WireMessage):
    """Flooded notice that a broker gained/lost interest in a pattern."""

    __slots__ = ("advert_id", "origin_broker", "pattern", "add")

    def __init__(
        self,
        advert_id: Optional[int] = None,
        origin_broker: str = "",
        pattern: str = "",
        add: bool = True,
    ):
        self.advert_id = advert_id if advert_id is not None else next(_advert_ids)
        self.origin_broker = origin_broker
        self.pattern = pattern
        self.add = add


class ClusterInterestAdvert(WireMessage):
    """Aggregated interest summary one cluster exports to the others.

    Sent by a cluster's *active* gateway and flooded over the gateway
    overlay only (never into a cluster's member mesh): the summary is
    the prefix-collapsed union of every pattern the cluster's members
    are interested in (see :func:`repro.broker.topic.summarize_patterns`).
    Epoch-versioned per origin gateway so a newer summary fully replaces
    an older one; a replaced summary's stale patterns are withdrawn by
    diffing, not re-flooding.
    """

    __slots__ = ("advert_id", "origin_gateway", "cluster_id", "epoch", "patterns")

    def __init__(
        self,
        advert_id: Optional[int] = None,
        origin_gateway: str = "",
        cluster_id: str = "",
        epoch: int = 0,
        patterns: tuple = (),
    ):
        self.advert_id = advert_id if advert_id is not None else next(_advert_ids)
        self.origin_gateway = origin_gateway
        self.cluster_id = cluster_id
        self.epoch = epoch
        self.patterns = patterns


class ClusterLsa(WireMessage):
    """Gateway-tier link-state advert: one gateway's overlay adjacency.

    The cluster tier's answer to :class:`LinkStateAdvert` — member LSAs
    never leave their cluster, so gateways flood *these* over the
    gateway overlay (inter-cluster links plus co-gateway links) to learn
    cluster-level reachability and compute routes to remote gateways.

    Like :class:`LinkStateAdvert`, a ``costs`` mapping (gateway → cost
    class) is optional; ``None`` keeps the pre-WAN wire size and reads
    as uniform cost 1.
    """

    __slots__ = ("advert_id", "origin_gateway", "cluster_id", "epoch",
                 "gw_neighbors", "costs")

    def __init__(
        self,
        advert_id: Optional[int] = None,
        origin_gateway: str = "",
        cluster_id: str = "",
        epoch: int = 0,
        gw_neighbors: FrozenSet[str] = frozenset(),
        costs: Optional[Dict[str, int]] = None,
    ):
        self.advert_id = advert_id if advert_id is not None else next(_advert_ids)
        self.origin_gateway = origin_gateway
        self.cluster_id = cluster_id
        self.epoch = epoch
        self.gw_neighbors = gw_neighbors
        self.costs = costs


class ClusterDigest(WireMessage):
    """Anti-entropy summary of a gateway's cluster-tier databases.

    Carries the epoch of every known :class:`ClusterLsa` and
    :class:`ClusterInterestAdvert`; the receiver pushes back anything it
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
    the origin, re-flood it to all peers except the one it arrived from
    (dedup-windowed like :class:`SubAdvert`), and recompute next-hop
    tables locally from the resulting link-state database.

    ``costs`` is the optional WAN extension (PR 10): a mapping of
    neighbor → integer cost class.  ``None`` — the default, and the only
    value a geo-unaware broker ever sends — is wire-size-identical to
    the pre-cost advert; receivers treat a missing entry as cost 1.
    """

    __slots__ = ("advert_id", "origin_broker", "epoch", "neighbors", "costs")

    def __init__(
        self,
        advert_id: Optional[int] = None,
        origin_broker: str = "",
        epoch: int = 0,
        neighbors: FrozenSet[str] = frozenset(),
        costs: Optional[Dict[str, int]] = None,
    ):
        self.advert_id = advert_id if advert_id is not None else next(_advert_ids)
        self.origin_broker = origin_broker
        self.epoch = epoch
        self.neighbors = neighbors
        self.costs = costs


class SequencerPin(WireMessage):
    """Flooded locality pin: ``topic``'s ordered stream now sequences at
    ``broker``.

    Emitted by the *current* sequencer when it observes a sustained
    publisher majority nearer another broker (PR 10 locality election).
    Epoch-versioned per topic — a higher epoch fully replaces a lower
    one, ties break toward the lexicographically smaller broker so every
    replica converges on the same pin.  ``next_sequence`` hands the
    stream's sequence counter to the new sequencer, keeping numbering
    continuous across the handoff.
    """

    __slots__ = ("advert_id", "topic", "broker", "epoch", "next_sequence",
                 "origin_broker")

    def __init__(
        self,
        advert_id: Optional[int] = None,
        topic: str = "",
        broker: str = "",
        epoch: int = 0,
        next_sequence: int = 0,
        origin_broker: str = "",
    ):
        self.advert_id = advert_id if advert_id is not None else next(_advert_ids)
        self.topic = topic
        self.broker = broker
        self.epoch = epoch
        self.next_sequence = next_sequence
        self.origin_broker = origin_broker


class LinkStateDigest(WireMessage):
    """Anti-entropy summary of a broker's link-state database.

    Sent when a peer link comes up (partition heal) and periodically with
    heartbeats; the receiver pushes back any LSAs it holds at a strictly
    newer epoch, which is how divergent halves of a healed partition
    reconcile without re-flooding everything.
    """

    __slots__ = ("origin_broker", "epochs")

    def __init__(
        self, origin_broker: str = "", epochs: Optional[Dict[str, int]] = None
    ):
        self.origin_broker = origin_broker
        self.epochs = epochs if epochs is not None else {}


def message_size(message: Any, envelope_bytes: int) -> int:
    """Wire size of a broker message."""
    if isinstance(message, (Publish, EventDelivery)):
        event = message.event
        return envelope_bytes + len(event.topic) + event.size
    if isinstance(message, PeerEvent):
        event = message.event
        return (
            envelope_bytes
            + len(event.topic)
            + event.size
            + 8 * len(message.targets)
        )
    if isinstance(message, SequenceRequest):
        return envelope_bytes + len(message.event.topic) + message.event.size + 16
    if isinstance(message, LinkStateAdvert):
        size = CONTROL_BYTES + 8 * len(message.neighbors)
        if message.costs:
            size += 2 * len(message.costs)
        return size
    if isinstance(message, LinkStateDigest):
        return CONTROL_BYTES + 12 * len(message.epochs)
    if isinstance(message, SequencerPin):
        return CONTROL_BYTES + len(message.topic) + len(message.broker) + 16
    if isinstance(message, ClusterInterestAdvert):
        return CONTROL_BYTES + sum(
            len(pattern) for pattern in message.patterns
        )
    if isinstance(message, ClusterLsa):
        size = CONTROL_BYTES + 8 * len(message.gw_neighbors)
        if message.costs:
            size += 2 * len(message.costs)
        return size
    if isinstance(message, ClusterDigest):
        return CONTROL_BYTES + 12 * (
            len(message.lsa_epochs) + len(message.interest_epochs)
        )
    return CONTROL_BYTES


# --------------------------------------------------------------------------
# Broker-side client links
# --------------------------------------------------------------------------


class ClientLink:
    """Broker-side handle used to push messages to one connected client."""

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
        size = message_size(message, self.envelope_bytes)
        if isinstance(message, EventDelivery):
            self.events_sent += 1
        self.bytes_sent += size
        self._transmit(message, size)

    def send_sized(self, delivery: "EventDelivery", size: int) -> None:
        """Zero-copy fan-out fast path.

        The broker precomputes the wire size once and shares a single
        :class:`EventDelivery` across every destination, so this skips the
        per-destination ``message_size`` isinstance chain.  Only event
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
        # Fan-out path: _transmit folded in, one frame from CPU to Host.send.
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

    kind: LinkType = LinkType.UDP

    def __init__(self) -> None:
        self.on_message: Optional[Callable[[Any], None]] = None
        self.on_ready: Optional[Callable[[], None]] = None
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
        if self.killed:
            return
        self._socket.sendto(message, size, self._broker)

    def _on_datagram(self, datagram: Datagram) -> None:
        socket = self._socket
        if socket.closed:
            return
        socket.received_packets += 1
        if self.on_message is not None:
            self.on_message(datagram.payload)

    def close(self) -> None:
        self._socket.close()


class TcpClientTransport(ClientTransport):
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
        if self._connection is None:
            raise RuntimeError("transport not started")
        self._connection.send(message, size)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()


class SslClientTransport(TcpClientTransport):
    """TCP transport plus simulated TLS handshake and record costs."""

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
        if self._connection is None:
            raise RuntimeError("transport not started")
        size += SSL_RECORD_OVERHEAD
        self._host.cpu.execute(
            size * SSL_CRYPTO_COST_PER_BYTE,
            self._connection.send,
            message,
            size,
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
