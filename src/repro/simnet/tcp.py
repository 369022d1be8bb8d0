"""Message-oriented reliable transport (simplified TCP).

Provides what the broker's TCP links need from real TCP: connection setup,
in-order reliable delivery with retransmission, MSS segmentation of large
messages, and a bounded send window.  Sequence numbers count segments (not
bytes) and each :meth:`TcpConnection.send` call is one framed message, which
matches how NaradaBrokering frames events over its TCP transport.

Demultiplexing: a listener owns one port; every segment carries a connection
id assigned by the client side, so both directions flow through the two
endpoints' single ports.

Retransmission (RFC 6298 §5): each in-flight segment keeps its own
deadline and backoff, but a connection holds one kernel timer, armed for
the earliest deadline.  An ACK does not touch it; when it fires for a
segment already acknowledged it re-arms for the earliest one left, or
stays down.  Every deadline also keeps the kernel tie-break number a
per-segment timer would have drawn when it was sent, and the connection
timer is armed with it (``Simulator.schedule_reserved``), so a
retransmission happens at the same instant and in the same place among
that instant's events as it did with one timer per segment.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

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
        self._pending: Deque[TcpSegment] = deque()  # not yet transmitted
        #: seq -> [segment, deadline, order, retries, rto, timer], in send
        #: order; ``order`` is the kernel tie-break number reserved at the
        #: send, ``timer`` the one armed for this deadline, if any was.
        self._inflight: Dict[int, list] = {}
        #: The retransmission timer: armed no later than the earliest
        #: in-flight deadline (perhaps for one acknowledged since), or None.
        self._rto_timer: Optional[Timer] = None
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
        state = self.state
        if state == TcpConnection.FINISHED or state == TcpConnection.FAILED:
            raise TransportError(f"connection is {state}")
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        self.messages_sent += 1
        seq = self._next_seq
        if size <= TCP_MSS_BYTES:  # one segment: straight out when it may go
            self._next_seq = seq + 1
            segment = TcpSegment(self.conn_id, DATA, seq, 0, payload, msg_id, 0, 1, size)
            if (
                state == TcpConnection.ESTABLISHED
                and not self._pending
                and len(self._inflight) < self.window
            ):
                self._transmit_data(segment, 0, INITIAL_RTO_S)
            else:
                self._pending.append(segment)
            return msg_id
        nfrags = -(-size // TCP_MSS_BYTES)
        last = nfrags - 1
        pending = self._pending
        for frag in range(nfrags):
            pending.append(TcpSegment(
                self.conn_id, DATA, seq + frag, 0,
                payload if frag == last else None, msg_id, frag, nfrags,
                TCP_MSS_BYTES if frag < last else size - last * TCP_MSS_BYTES,
            ))
        self._next_seq = seq + nfrags
        self._pump()
        return msg_id

    def _pump(self) -> None:
        """Transmit pending segments while window space remains."""
        if self.state != TcpConnection.ESTABLISHED:
            return
        pending = self._pending
        while pending and len(self._inflight) < self.window:
            self._transmit_data(pending.popleft(), 0, INITIAL_RTO_S)

    def _transmit_data(self, segment: TcpSegment, retries: int, rto: float) -> None:
        sim = self.sim
        order = sim._next_seq  # the tie-break a timer made here would take
        sim._next_seq = order + 1
        deadline = sim.now + rto
        timer = self._rto_timer
        if timer is None or deadline < timer[0]:
            # None armed, or (after a backoff) only one due later: this
            # deadline gets its own timer, and the later one still fires.
            timer = self._rto_timer = sim.schedule_reserved(
                deadline, order, self._on_rto, order
            )
        else:
            timer = None
        self._inflight[segment.seq] = [segment, deadline, order, retries, rto, timer]
        self.host.send(
            self.local_port, self.peer, segment, TCP_HEADER_BYTES + segment.data_size
        )

    def _on_rto(self, order: int) -> None:
        """The timer armed for the deadline reserved as ``order`` fired:
        retransmit that segment if it is still unacknowledged, and keep a
        timer armed no later than the earliest deadline left."""
        timer = self._rto_timer
        if timer is not None and timer[1] == order:
            timer = self._rto_timer = None
        due = first = None
        for entry in self._inflight.values():
            if entry[2] == order:
                due = entry
            elif first is None or entry[1] < first[1] or (
                entry[1] == first[1] and entry[2] < first[2]
            ):
                first = entry
        if timer is None and first is not None:
            # A deadline armed once keeps its timer (it is never
            # cancelled), so its place in the heap is never taken twice.
            if first[5] is None:
                first[5] = self.sim.schedule_reserved(
                    first[1], first[2], self._on_rto, first[2]
                )
            self._rto_timer = first[5]
        if due is None:
            return  # acknowledged since the timer was armed for it
        segment, _deadline, _order, retries, rto, _timer = due
        del self._inflight[segment.seq]
        if retries >= MAX_RETRIES:
            self._teardown(TcpConnection.FAILED)
            return
        self.retransmissions += 1
        self._transmit_data(segment, retries + 1, min(rto * 2.0, MAX_RTO_S))

    def _transmit_control(self, kind: str, ack: int = 0) -> None:
        self.host.send(
            self.local_port, self.peer, TcpSegment(self.conn_id, kind, 0, ack),
            TCP_HEADER_BYTES,
        )

    # ---------------------------------------------------------- receiving

    def handle_segment(self, segment: TcpSegment, src: Address) -> None:
        """Process one inbound segment (called by the listener/connector)."""
        state = self.state
        kind = segment.kind
        if state == TcpConnection.ESTABLISHED:  # the steady state, first
            if kind == ACK:
                self._handle_ack(segment.ack)
                return
            if kind == DATA:
                self._handle_data(segment)
                return
        elif state == TcpConnection.FINISHED or state == TcpConnection.FAILED:
            return
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

    def _on_datagram(self, datagram: Datagram) -> None:
        """The handler of a ``tcp_connect`` port: every segment is ours."""
        self.handle_segment(datagram.payload, datagram.src)

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
        """Cumulative ack: everything below ``ack`` is delivered.  The
        in-flight segments are exactly ``_send_base`` up to the last one
        sent, so the acknowledged ones are a range; the timer stays."""
        base = self._send_base
        if ack <= base:
            return
        inflight = self._inflight
        for seq in range(base, ack):
            del inflight[seq]
        self._send_base = ack
        if self._pending:
            self._pump()

    def _handle_data(self, segment: TcpSegment) -> None:
        rcv_next = self._rcv_next
        if segment.seq == rcv_next and segment.nfrags == 1 and not self._ooo:
            # In order and whole: nothing to buffer or reassemble.
            self._rcv_next = rcv_next + 1
            self.messages_received += 1
            on_message = self.on_message
            if on_message is not None:
                self._delivering = True
                on_message(segment.msg, segment.data_size, self)
                self._delivering = False
                state = self.state
                if state == TcpConnection.FINISHED or state == TcpConnection.FAILED:
                    self.on_message = None  # a teardown under it left it
        elif segment.seq >= rcv_next:
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
        self.host.send(
            self.local_port, self.peer,
            TcpSegment(self.conn_id, ACK, 0, self._rcv_next), TCP_HEADER_BYTES,
        )

    def _deliver_message(self, last_fragment: TcpSegment) -> None:
        size = sum(fragment.data_size for fragment in self._assembling)
        self._assembling = []
        self.messages_received += 1
        if self.on_message is not None:
            self.on_message(last_fragment.msg, size, self)

    def _teardown(self, state: str) -> None:
        self.state = state
        self._cancel_handshake_timer()
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        for entry in self._inflight.values():
            if entry[5] is not None:
                entry[5].cancel()
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

    host.bind(port, connection._on_datagram)
    connection.open()
    return connection
