"""Message-oriented reliable transport (simplified TCP).

Provides what the broker's TCP links need from real TCP: connection setup,
in-order reliable delivery with retransmission, MSS segmentation of large
messages, and a bounded send window.  Sequence numbers count segments (not
bytes) and each :meth:`TcpConnection.send` call is one framed message, which
matches how NaradaBrokering frames events over its TCP transport.

Demultiplexing: a listener owns one port; every segment carries a connection
id assigned by the client side, so both directions flow through the two
endpoints' single ports.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simnet.kernel import Timer
from repro.simnet.node import Host
from repro.simnet.packet import Address, Datagram
from repro.simnet.transport import (
    TCP_HEADER_BYTES,
    TCP_MSS_BYTES,
    TransportError,
)

_conn_ids = itertools.count(1)

SYN = "SYN"
SYN_ACK = "SYN-ACK"
ACK = "ACK"
DATA = "DATA"
FIN = "FIN"

#: Initial retransmission timeout and backoff cap.
INITIAL_RTO_S = 0.2
MAX_RTO_S = 3.0
#: Maximum unacknowledged segments in flight.
DEFAULT_WINDOW = 64
#: Give up after this many retransmissions of one segment.
MAX_RETRIES = 8


class TcpSegment:
    """One wire segment of the simplified TCP (slotted: per-wire-packet)."""

    __slots__ = (
        "conn_id", "kind", "seq", "ack",
        "msg", "msg_id", "frag", "nfrags", "data_size",
    )

    def __init__(
        self,
        conn_id: int,
        kind: str,
        seq: int = 0,
        ack: int = 0,
        msg: Any = None,
        msg_id: int = 0,
        frag: int = 0,
        nfrags: int = 1,
        data_size: int = 0,
    ):
        self.conn_id = conn_id
        self.kind = kind
        self.seq = seq
        self.ack = ack
        self.msg = msg
        self.msg_id = msg_id
        self.frag = frag
        self.nfrags = nfrags
        self.data_size = data_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TcpSegment {self.kind} conn={self.conn_id} seq={self.seq}>"


class TcpConnection:
    """One endpoint of an established (or connecting) connection."""

    # States
    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FINISHED = "FINISHED"
    FAILED = "FAILED"

    def __init__(
        self,
        host: Host,
        local_port: int,
        peer: Address,
        conn_id: int,
        is_client: bool,
    ):
        self.host = host
        self.sim = host.sim
        self.local_port = local_port
        self.peer = peer
        self.conn_id = conn_id
        self.is_client = is_client
        self.window = DEFAULT_WINDOW
        self.state = TcpConnection.CLOSED
        self.on_message: Optional[Callable[[Any, int, "TcpConnection"], None]] = None
        self.on_established: Optional[Callable[["TcpConnection"], None]] = None
        self.on_close: Optional[Callable[["TcpConnection"], None]] = None
        # Internal close hook used by listeners/connectors for cleanup;
        # user code owns ``on_close``, so this must be separate.
        self._internal_on_close: Optional[Callable[["TcpConnection"], None]] = None
        self._handshake_timer: Optional[Timer] = None
        self._handshake_retries = 0
        #: Set by tcp_connect: the port is this connection's own and is
        #: unbound at teardown.
        self._own_port = False
        #: True while _handle_data hands reassembled messages over.
        self._delivering = False
        # Send side.
        self._next_seq = 0
        self._send_base = 0
        self._pending: List[TcpSegment] = []  # not yet transmitted
        self._inflight: Dict[int, Tuple[TcpSegment, Timer, int, float]] = {}
        self._next_msg_id = 0
        # Receive side.
        self._rcv_next = 0
        self._ooo: Dict[int, TcpSegment] = {}
        self._assembling: List[TcpSegment] = []
        # Stats.
        self.retransmissions = 0
        self.messages_sent = 0
        self.messages_received = 0

    # ------------------------------------------------------------ control

    def open(self) -> None:
        """Client side: begin the three-way handshake."""
        if not self.is_client:
            raise TransportError("open() is for client connections")
        self.state = TcpConnection.SYN_SENT
        self._transmit_control(SYN)
        self._arm_handshake_timer(INITIAL_RTO_S)

    def _arm_handshake_timer(self, rto: float) -> None:
        self._handshake_timer = self.sim.schedule(rto, self._on_handshake_rto, rto)

    def _on_handshake_rto(self, rto: float) -> None:
        """Retransmit the lost SYN / SYN-ACK until the handshake completes."""
        if self.state not in (TcpConnection.SYN_SENT, TcpConnection.SYN_RCVD):
            return
        if self._handshake_retries >= MAX_RETRIES:
            self._teardown(TcpConnection.FAILED)
            return
        self._handshake_retries += 1
        self.retransmissions += 1
        self._transmit_control(SYN if self.is_client else SYN_ACK)
        self._arm_handshake_timer(min(rto * 2.0, MAX_RTO_S))

    def close(self) -> None:
        """Send FIN and tear down."""
        if self.state in (TcpConnection.FINISHED, TcpConnection.FAILED):
            return
        self._transmit_control(FIN)
        self._teardown(TcpConnection.FINISHED)

    @property
    def established(self) -> bool:
        return self.state == TcpConnection.ESTABLISHED

    # ------------------------------------------------------------ sending

    def send(self, payload: Any, size: int) -> int:
        """Queue one framed message of ``size`` bytes; returns its msg id."""
        if self.state in (TcpConnection.FINISHED, TcpConnection.FAILED):
            raise TransportError(f"connection is {self.state}")
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        nfrags = max(1, -(-size // TCP_MSS_BYTES))
        remaining = size
        for frag in range(nfrags):
            chunk = min(TCP_MSS_BYTES, remaining)
            remaining -= chunk
            segment = TcpSegment(
                conn_id=self.conn_id,
                kind=DATA,
                seq=self._next_seq,
                msg=payload if frag == nfrags - 1 else None,
                msg_id=msg_id,
                frag=frag,
                nfrags=nfrags,
                data_size=chunk,
            )
            self._next_seq += 1
            self._pending.append(segment)
        self.messages_sent += 1
        self._pump()
        return msg_id

    def _pump(self) -> None:
        """Transmit pending segments while window space remains."""
        if self.state != TcpConnection.ESTABLISHED:
            return
        while self._pending and len(self._inflight) < self.window:
            segment = self._pending.pop(0)
            self._transmit_data(segment, retries=0, rto=INITIAL_RTO_S)

    def _transmit_data(self, segment: TcpSegment, retries: int, rto: float) -> None:
        timer = self.sim.schedule(rto, self._on_rto, segment.seq)
        self._inflight[segment.seq] = (segment, timer, retries, rto)
        self._send_segment(segment)

    def _on_rto(self, seq: int) -> None:
        entry = self._inflight.pop(seq, None)
        if entry is None:
            return
        segment, _timer, retries, rto = entry
        if retries >= MAX_RETRIES:
            self._teardown(TcpConnection.FAILED)
            return
        self.retransmissions += 1
        self._transmit_data(segment, retries + 1, min(rto * 2.0, MAX_RTO_S))

    def _transmit_control(self, kind: str, ack: int = 0) -> None:
        segment = TcpSegment(conn_id=self.conn_id, kind=kind, ack=ack)
        self._send_segment(segment)

    def _send_segment(self, segment: TcpSegment) -> None:
        self.host.send(
            self.local_port, self.peer, segment, TCP_HEADER_BYTES + segment.data_size
        )

    # ---------------------------------------------------------- receiving

    def handle_segment(self, segment: TcpSegment, src: Address) -> None:
        """Process one inbound segment (called by the listener/connector)."""
        if self.state in (TcpConnection.FINISHED, TcpConnection.FAILED):
            return
        kind = segment.kind
        if kind == SYN:
            # Duplicate SYN: our SYN-ACK was lost; retransmit it.
            if not self.is_client:
                self._transmit_control(SYN_ACK)
        elif kind == SYN_ACK:
            if self.state == TcpConnection.SYN_SENT:
                self.state = TcpConnection.ESTABLISHED
                self._cancel_handshake_timer()
                self._transmit_control(ACK)
                if self.on_established is not None:
                    self.on_established(self)
                self._pump()
            elif self.state == TcpConnection.ESTABLISHED:
                # Duplicate SYN-ACK: our ACK was lost; re-acknowledge.
                self._transmit_control(ACK)
        elif kind == ACK:
            self._note_peer_established()
            self._handle_ack(segment.ack)
        elif kind == DATA:
            # Server side may see DATA before the bare ACK when the ACK is
            # lost; DATA implies the peer considers us established.
            self._note_peer_established()
            self._handle_data(segment)
        elif kind == FIN:
            self._teardown(TcpConnection.FINISHED)

    def _note_peer_established(self) -> None:
        if self.state == TcpConnection.SYN_RCVD:
            self.state = TcpConnection.ESTABLISHED
            self._cancel_handshake_timer()
            if self.on_established is not None:
                self.on_established(self)
            self._pump()

    def _cancel_handshake_timer(self) -> None:
        if self._handshake_timer is not None:
            self._handshake_timer.cancel()
            self._handshake_timer = None

    def _handle_ack(self, ack: int) -> None:
        """Cumulative ack: everything below ``ack`` is delivered."""
        advanced = False
        for seq in list(self._inflight):
            if seq < ack:
                _segment, timer, _retries, _rto = self._inflight.pop(seq)
                timer.cancel()
                advanced = True
        if advanced:
            self._send_base = max(self._send_base, ack)
            self._pump()

    def _handle_data(self, segment: TcpSegment) -> None:
        if segment.seq >= self._rcv_next:
            self._ooo.setdefault(segment.seq, segment)
            self._delivering = True
            while self._rcv_next in self._ooo:
                ready = self._ooo.pop(self._rcv_next)
                self._rcv_next += 1
                self._assembling.append(ready)
                if ready.frag == ready.nfrags - 1:
                    self._deliver_message(ready)
            self._delivering = False
            if self.state in (TcpConnection.FINISHED, TcpConnection.FAILED):
                self.on_message = None  # a teardown under the loop left it
        # Always (re)ack cumulatively — covers lost-ack retransmits.
        self._transmit_control(ACK, ack=self._rcv_next)

    def _deliver_message(self, last_fragment: TcpSegment) -> None:
        size = sum(fragment.data_size for fragment in self._assembling)
        self._assembling = []
        self.messages_received += 1
        if self.on_message is not None:
            self.on_message(last_fragment.msg, size, self)

    def _teardown(self, state: str) -> None:
        self.state = state
        self._cancel_handshake_timer()
        for _segment, timer, _retries, _rto in self._inflight.values():
            timer.cancel()
        self._inflight.clear()
        self._pending.clear()
        if self._internal_on_close is not None:
            hook, self._internal_on_close = self._internal_on_close, None
            hook(self)
        if self.on_close is not None:
            callback, self.on_close = self.on_close, None
            callback(self)
        # The owner's hooks go with the connection, so neither keeps the
        # other alive past it; what the loop in _handle_data already
        # reassembled still reaches on_message, which goes after it.
        self.on_established = None
        if not self._delivering:
            self.on_message = None
        if self._own_port:
            self.host.unbind(self.local_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TcpConnection #{self.conn_id} {self.state} -> {self.peer}>"


class TcpListener:
    """Accepts connections on a port and demultiplexes established ones."""

    def __init__(
        self,
        host: Host,
        port: Optional[int] = None,
        on_connection: Optional[Callable[[TcpConnection], None]] = None,
    ):
        self.host = host
        self.port = host.allocate_port() if port is None else port
        self.on_connection = on_connection
        self._connections: Dict[int, TcpConnection] = {}
        self._closed = False
        host.bind(self.port, self._on_datagram)

    @property
    def local_address(self) -> Address:
        return Address(self.host.name, self.port)

    def connections(self) -> List[TcpConnection]:
        return list(self._connections.values())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for connection in list(self._connections.values()):
            connection.close()
        self.host.unbind(self.port)
        self.on_connection = None  # nothing reaches it once closed

    def _on_datagram(self, datagram: Datagram) -> None:
        if self._closed:
            return
        segment: TcpSegment = datagram.payload
        connection = self._connections.get(segment.conn_id)
        if connection is None:
            if segment.kind != SYN:
                return  # stray segment for a dead connection
            connection = TcpConnection(
                host=self.host,
                local_port=self.port,
                peer=datagram.src,
                conn_id=segment.conn_id,
                is_client=False,
            )
            connection.state = TcpConnection.SYN_RCVD
            self._connections[segment.conn_id] = connection
            connection._internal_on_close = lambda conn: self._connections.pop(
                conn.conn_id, None
            )
            if self.on_connection is not None:
                self.on_connection(connection)
            connection._transmit_control(SYN_ACK)
            connection._arm_handshake_timer(INITIAL_RTO_S)
            return
        connection.handle_segment(segment, datagram.src)


def tcp_connect(
    host: Host,
    server: Address,
    on_established: Optional[Callable[[TcpConnection], None]] = None,
    on_message: Optional[Callable[[Any, int, TcpConnection], None]] = None,
) -> TcpConnection:
    """Open a client connection to ``server``; returns immediately with the
    connecting :class:`TcpConnection` (watch ``on_established``)."""
    port = host.allocate_port()
    connection = TcpConnection(
        host=host,
        local_port=port,
        peer=server,
        conn_id=next(_conn_ids),
        is_client=True,
    )
    connection.on_established = on_established
    connection.on_message = on_message
    connection._own_port = True

    def dispatch(datagram: Datagram) -> None:
        connection.handle_segment(datagram.payload, datagram.src)

    host.bind(port, dispatch)
    connection.open()
    return connection
