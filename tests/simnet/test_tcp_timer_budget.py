"""TCP retransmission-timer budget: kernel timers per connection.

Counts, not timings.  A connection keeps one retransmission timer, armed
for its earliest in-flight deadline (RFC 6298 §5), where it used to arm
one per data segment and cancel each on its ACK: a lossless window of
messages outstanding costs one kernel timer and no cancellation.
"""

from repro.simnet import LinkProfile, Network, SeededStreams, Simulator, TcpListener
from repro.simnet.tcp import DEFAULT_WINDOW, INITIAL_RTO_S, tcp_connect

#: Kernel timers a connection arms for a lossless window of messages.
TIMERS_PER_WINDOW = 1


class CountingSimulator(Simulator):
    """Counts every kernel timer armed."""

    def __init__(self):
        super().__init__()
        self.timers_armed = 0

    def schedule(self, *args):
        self.timers_armed += 1
        return super().schedule(*args)

    def schedule_at(self, *args):
        self.timers_armed += 1
        return super().schedule_at(*args)

    def schedule_reserved(self, *args):
        self.timers_armed += 1
        return super().schedule_reserved(*args)


def established_pair(window=DEFAULT_WINDOW):
    sim = CountingSimulator()
    net = Network(sim, SeededStreams(1))
    server_host = net.create_host("server", link=LinkProfile(loss_rate=0.0))
    client_host = net.create_host("client")
    got = []

    def on_conn(connection):
        connection.on_message = lambda msg, size, c: got.append(msg)

    listener = TcpListener(server_host, 9000, on_connection=on_conn)
    conn = tcp_connect(client_host, listener.local_address)
    conn.window = window
    sim.run_for(1.0)
    assert conn.established
    return sim, conn, got


def test_a_lossless_window_costs_one_kernel_timer():
    sim, conn, got = established_pair()
    armed, cancelled = sim.timers_armed, sim.timers_cancelled
    for n in range(DEFAULT_WINDOW):
        conn.send(n, 100)
    assert len(conn._inflight) == DEFAULT_WINDOW
    assert sim.timers_armed - armed == TIMERS_PER_WINDOW
    sim.run_for(2 * INITIAL_RTO_S)
    assert got == list(range(DEFAULT_WINDOW))
    assert not conn._inflight and conn.retransmissions == 0
    # The ACKs left the timer alone: it fired once, found every segment
    # acknowledged and stayed down.
    assert sim.timers_armed - armed == TIMERS_PER_WINDOW
    assert sim.timers_cancelled == cancelled
    assert conn._rto_timer is None


def test_request_after_request_inside_one_rto_shares_the_timer():
    # One message at a time, each acknowledged before the next goes: the
    # timer armed for the first covers every later deadline it precedes.
    sim, conn, got = established_pair()
    armed, cancelled = sim.timers_armed, sim.timers_cancelled
    for n in range(10):
        conn.send(n, 100)
        sim.run_for(INITIAL_RTO_S / 20)
        assert not conn._inflight
    sim.run_for(2 * INITIAL_RTO_S)
    assert got == list(range(10))
    assert sim.timers_armed - armed == TIMERS_PER_WINDOW
    assert sim.timers_cancelled == cancelled
