"""Tests for the simplified reliable TCP transport."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import (
    Address,
    LinkProfile,
    Network,
    SeededStreams,
    Simulator,
    TcpListener,
)
from repro.simnet import tcp
from repro.simnet.tcp import (
    ACK,
    DATA,
    DEFAULT_WINDOW,
    FIN,
    INITIAL_RTO_S,
    MAX_RETRIES,
    MAX_RTO_S,
    SYN,
    SYN_ACK,
    TcpConnection,
    TcpSegment,
    tcp_connect,
)
from repro.simnet.transport import TCP_HEADER_BYTES, TCP_MSS_BYTES, TransportError


def setup_pair(net, loss=0.0):
    server_host = net.create_host("server", link=LinkProfile(loss_rate=loss))
    client_host = net.create_host("client")
    return server_host, client_host


def test_handshake_establishes_both_sides(net, sim):
    server_host, client_host = setup_pair(net)
    accepted = []
    listener = TcpListener(server_host, 9000, on_connection=accepted.append)
    events = []
    conn = tcp_connect(
        client_host,
        listener.local_address,
        on_established=lambda c: events.append("client-up"),
    )
    sim.run()
    assert events == ["client-up"]
    assert conn.established
    assert len(accepted) == 1


def test_messages_delivered_in_order(net, sim):
    server_host, client_host = setup_pair(net)
    got = []

    def on_conn(connection):
        connection.on_message = lambda msg, size, c: got.append(msg)

    listener = TcpListener(server_host, 9000, on_connection=on_conn)
    conn = tcp_connect(client_host, listener.local_address)
    for i in range(20):
        conn.send(f"msg-{i}", 100)
    sim.run()
    assert got == [f"msg-{i}" for i in range(20)]


def test_large_message_fragmented_and_reassembled(net, sim):
    server_host, client_host = setup_pair(net)
    got = []

    def on_conn(connection):
        connection.on_message = lambda msg, size, c: got.append((msg, size))

    listener = TcpListener(server_host, 9000, on_connection=on_conn)
    conn = tcp_connect(client_host, listener.local_address)
    big = 5 * TCP_MSS_BYTES + 123
    conn.send("big-payload", big)
    sim.run()
    assert got == [("big-payload", big)]


def test_reliable_delivery_over_lossy_link():
    sim = Simulator()
    net = Network(sim, SeededStreams(3))
    server_host = net.create_host("server", link=LinkProfile(loss_rate=0.15))
    client_host = net.create_host("client")
    got = []

    def on_conn(connection):
        connection.on_message = lambda msg, size, c: got.append(msg)

    listener = TcpListener(server_host, 9000, on_connection=on_conn)
    conn = tcp_connect(client_host, listener.local_address)
    for i in range(50):
        conn.send(i, 200)
    sim.run(until=60.0)
    assert got == list(range(50))
    assert conn.retransmissions > 0


def test_bidirectional_messages(net, sim):
    server_host, client_host = setup_pair(net)
    server_got, client_got = [], []

    def on_conn(connection):
        connection.on_message = lambda msg, size, c: (
            server_got.append(msg),
            c.send(f"echo:{msg}", 50),
        )

    listener = TcpListener(server_host, 9000, on_connection=on_conn)
    conn = tcp_connect(
        client_host,
        listener.local_address,
        on_message=lambda msg, size, c: client_got.append(msg),
    )
    conn.send("hi", 10)
    sim.run()
    assert server_got == ["hi"]
    assert client_got == ["echo:hi"]


def test_close_notifies_peer(net, sim):
    server_host, client_host = setup_pair(net)
    closed = []

    def on_conn(connection):
        connection.on_close = lambda c: closed.append("server")

    listener = TcpListener(server_host, 9000, on_connection=on_conn)
    conn = tcp_connect(client_host, listener.local_address)
    sim.run()
    conn.close()
    sim.run()
    assert closed == ["server"]
    assert len(listener.connections()) == 0


def test_send_after_close_raises(net, sim):
    server_host, client_host = setup_pair(net)
    listener = TcpListener(server_host, 9000)
    conn = tcp_connect(client_host, listener.local_address)
    sim.run()
    conn.close()
    with pytest.raises(Exception):
        conn.send("x", 1)


def test_window_limits_inflight_segments(net, sim):
    server_host, client_host = setup_pair(net)
    got = []

    def on_conn(connection):
        connection.on_message = lambda msg, size, c: got.append(msg)

    listener = TcpListener(server_host, 9000, on_connection=on_conn)
    conn = tcp_connect(client_host, listener.local_address)
    conn.window = 4
    for i in range(100):
        conn.send(i, 100)
    sim.run()
    assert got == list(range(100))


def test_concurrent_connections_demultiplexed(net, sim):
    server_host = net.create_host("server")
    got = {}

    def on_conn(connection):
        connection.on_message = lambda msg, size, c: got.setdefault(
            c.conn_id, []
        ).append(msg)

    listener = TcpListener(server_host, 9000, on_connection=on_conn)
    conns = []
    for i in range(5):
        host = net.create_host(f"client{i}")
        conns.append(tcp_connect(host, listener.local_address))
    for i, conn in enumerate(conns):
        for j in range(3):
            conn.send(f"c{i}-m{j}", 50)
    sim.run()
    assert len(got) == 5
    streams = sorted(tuple(v) for v in got.values())
    assert streams == sorted(
        tuple(f"c{i}-m{j}" for j in range(3)) for i in range(5)
    )


# ------------------------------------- the per-segment-timer reference
#
# Until one retransmission timer per connection, every data segment armed
# a kernel timer of its own and its ACK cancelled it.  That send side is
# kept here, as it was, to show that the connection timer retransmits the
# same segments at the same instants, in the same place among each
# instant's events, and delivers the same messages.


class PerSegmentTimerTcp(TcpConnection):
    """``TcpConnection`` with the per-segment timers it used to have."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = []

    def handle_segment(self, segment, src):
        if self.state in (TcpConnection.FINISHED, TcpConnection.FAILED):
            return
        kind = segment.kind
        if kind == SYN:
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
                self._transmit_control(ACK)
        elif kind == ACK:
            self._note_peer_established()
            self._handle_ack(segment.ack)
        elif kind == DATA:
            self._note_peer_established()
            self._handle_data(segment)
        elif kind == FIN:
            self._teardown(TcpConnection.FINISHED)

    def send(self, payload, size):
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
                conn_id=self.conn_id, kind=DATA, seq=self._next_seq,
                msg=payload if frag == nfrags - 1 else None, msg_id=msg_id,
                frag=frag, nfrags=nfrags, data_size=chunk,
            )
            self._next_seq += 1
            self._pending.append(segment)
        self.messages_sent += 1
        self._pump()
        return msg_id

    def _pump(self):
        if self.state != TcpConnection.ESTABLISHED:
            return
        while self._pending and len(self._inflight) < self.window:
            segment = self._pending.pop(0)
            self._transmit_data(segment, retries=0, rto=INITIAL_RTO_S)

    def _transmit_data(self, segment, retries, rto):
        timer = self.sim.schedule(rto, self._on_rto, segment.seq)
        self._inflight[segment.seq] = (segment, timer, retries, rto)
        self.host.send(
            self.local_port, self.peer, segment,
            TCP_HEADER_BYTES + segment.data_size,
        )

    def _on_rto(self, seq):
        entry = self._inflight.pop(seq, None)
        if entry is None:
            return
        segment, _timer, retries, rto = entry
        if retries >= MAX_RETRIES:
            self._teardown(TcpConnection.FAILED)
            return
        self.retransmissions += 1
        self._transmit_data(segment, retries + 1, min(rto * 2.0, MAX_RTO_S))

    def _handle_ack(self, ack):
        advanced = False
        for seq in list(self._inflight):
            if seq < ack:
                _segment, timer, _retries, _rto = self._inflight.pop(seq)
                timer.cancel()
                advanced = True
        if advanced:
            self._send_base = max(self._send_base, ack)
            self._pump()

    def _handle_data(self, segment):
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
                self.on_message = None
        self._transmit_control(ACK, ack=self._rcv_next)

    def _teardown(self, state):
        for _segment, timer, _retries, _rto in self._inflight.values():
            timer.cancel()
        self._inflight.clear()
        super()._teardown(state)


def tcp_run(script, loss, window, reference):
    """Run ``script`` — ``(at, sender, size)`` sends, sender 0 the client
    and 1 the server — over a link losing ``loss`` of the server's
    inbound packets; returns every packet sent (when, by whom, what),
    every message delivered (when, where, what, its size), and each
    side's retransmission count, final state and messages received."""
    sim = Simulator()
    net = Network(sim, SeededStreams(7))
    server_host = net.create_host("server", link=LinkProfile(loss_rate=loss))
    client_host = net.create_host("client", link=LinkProfile(loss_rate=loss / 2))
    wire, delivered = [], []
    for host in (server_host, client_host):
        def logged(port, dst, segment, size, *rest, send=host.send, name=host.name):
            wire.append((sim.now, name, segment.kind, segment.seq, segment.ack, size))
            return send(port, dst, segment, size, *rest)
        host.send = logged
    ends = {}

    def on_conn(connection):
        connection.window = window
        connection.on_message = lambda msg, size, c: delivered.append(
            (sim.now, "server", msg, size)
        )
        ends[1] = connection

    def send(n, sender, size):
        end = ends.get(sender)
        if end is not None and end.state not in ("FINISHED", "FAILED"):
            end.send(n, size)

    kind = PerSegmentTimerTcp if reference else TcpConnection
    with patch.object(tcp, "TcpConnection", kind):  # the listener's side too
        TcpListener(server_host, 9000, on_connection=on_conn)
        ends[0] = tcp_connect(
            client_host, Address("server", 9000),
            on_message=lambda msg, size, c: delivered.append(
                (sim.now, "client", msg, size)
            ),
        )
        ends[0].window = window
        for n, (at, sender, size) in enumerate(script):
            sim.schedule(at, send, n, sender, size)
        sim.run(until=120.0)
    assert all(type(end) is kind for end in ends.values())
    ends_state = [
        (end.retransmissions, end.state, end.messages_received)
        for _, end in sorted(ends.items())
    ]
    return wire, delivered, ends_state


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.05, 0.2, 0.4, 1.0])
            | st.floats(min_value=0.0, max_value=3.0),
            st.sampled_from([0, 0, 0, 1]),
            st.sampled_from([1, 100, TCP_MSS_BYTES, TCP_MSS_BYTES + 1])
            | st.integers(min_value=1, max_value=5 * TCP_MSS_BYTES),
        ),
        min_size=1,
        max_size=25,
    ),
    loss=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    window=st.sampled_from([1, 2, 4, DEFAULT_WINDOW]),
)
def test_one_rto_timer_per_connection_matches_per_segment_timers(
    script, loss, window
):
    new = tcp_run(script, loss, window, reference=False)
    old = tcp_run(script, loss, window, reference=True)
    assert new[0] == old[0]  # every packet, retransmissions included
    assert new[1] == old[1]  # every delivery, at the same instant
    assert new[2] == old[2]
