"""Property-based tests on the simulation substrate."""

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
from repro.simnet.cpu import Cpu
from repro.simnet.tcp import tcp_connect


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=50))
def test_kernel_executes_all_events_in_nondecreasing_time(delays):
    sim = Simulator()
    seen = []
    for delay in delays:
        sim.schedule(delay, lambda: seen.append(sim.now))
    sim.run()
    assert len(seen) == len(delays)
    assert seen == sorted(seen)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30
    )
)
def test_cpu_total_busy_time_equals_sum_of_costs(costs):
    sim = Simulator()
    cpu = Cpu(sim)
    for cost in costs:
        cpu.execute(cost, lambda: None)
    sim.run()
    assert abs(cpu.busy_time - sum(costs)) < 1e-9
    # The makespan of a single FIFO server equals the total work.
    assert abs(sim.now - sum(costs)) < 1e-9


@given(
    st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=30),
    st.floats(min_value=1e5, max_value=1e9),
)
def test_nic_completion_time_is_total_bits_over_rate(sizes, rate):
    from repro.simnet.nic import Nic

    sim = Simulator()
    from repro.simnet.packet import Datagram

    link = LinkProfile(bandwidth_bps=rate)
    done = []
    nic = Nic(sim, link, lambda d, tx_done: done.append(tx_done))
    for size in sizes:
        nic.enqueue(Datagram(Address("a", 1), Address("b", 1), b"", size))
    expected = sum(sizes) * 8.0 / rate
    assert abs(done[-1] - expected) < 1e-6 * max(1.0, expected)
    assert nic.sent_packets == len(sizes)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.0, max_value=0.3),
    st.integers(min_value=1, max_value=40),
)
def test_tcp_delivers_every_message_in_order_despite_loss(seed, loss, n):
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    server_host = net.create_host("server", link=LinkProfile(loss_rate=loss))
    client_host = net.create_host("client")
    got = []

    def on_conn(connection):
        connection.on_message = lambda msg, size, c: got.append(msg)

    listener = TcpListener(server_host, 9000, on_connection=on_conn)
    conn = tcp_connect(client_host, listener.local_address)
    for i in range(n):
        conn.send(i, 100)
    sim.run(until=300.0)
    assert got == list(range(n))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 8))
def test_multicast_reaches_exactly_the_members(seed, members):
    from repro.simnet.udp import UdpSocket

    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    sender_host = net.create_host("sender")
    group = "233.9.0.1"
    got = []
    for i in range(members):
        host = net.create_host(f"m{i}")
        sock = UdpSocket(host)
        sock.join_group(group)
        sock.on_receive(lambda p, s, d, i=i: got.append(i))
    outsider = net.create_host("outsider")
    outsider_sock = UdpSocket(outsider)
    outsider_sock.on_receive(lambda p, s, d: got.append("outsider"))
    UdpSocket(sender_host).sendto("x", 10, Address(group, 1))
    sim.run()
    assert sorted(got) == list(range(members))


# ------------------------------------------------- path records vs. rules
#
# The reference below is the per-packet resolver ``Network`` had before it
# kept path records: every send re-derives blocked / region / latency /
# loss / jitter from the tables.  A random sequence of mutators, with a
# send over every host pair before the first and after each, must come
# out float-for-float the same through the records, with every sender's
# ``network:<host>`` stream drawn from equally often.

HOSTS = ("h0", "h1", "h2", "h3")  # h3 joins late, via the add_host step
REGIONS = ("east", "west")
_latency = st.sampled_from((0.0, 0.0003, 0.02, 0.11))
_loss = st.sampled_from((0.0, 0.0, 0.3, 0.9))
_links = st.builds(
    LinkProfile,
    latency_s=_latency,
    jitter_s=st.sampled_from((0.0, 0.0005, 0.004)),
    loss_rate=_loss,
)
_host = st.sampled_from(HOSTS)
_region = st.sampled_from(REGIONS)
_steps = st.one_of(
    st.tuples(st.just("set_path_latency"), _host, _host, _latency),
    st.tuples(st.just("set_path_blocked"), _host, _host, st.booleans()),
    st.tuples(st.just("set_region"), _host, _region),
    st.tuples(st.just("set_region_latency"), _region, _region, _latency, _loss),
    st.tuples(st.just("set_region_blocked"), _region, _region, st.booleans()),
    st.tuples(st.just("set_link"), _host, _links),
    st.tuples(st.just("add_host"), _links),
)


class ReferenceFabric:
    """The routing tables plus the from-scratch per-packet rule."""

    def __init__(self, streams, base_latency_s):
        self.streams = streams
        self.base_latency_s = base_latency_s
        self.links = {}
        self.path_latency = {}
        self.blocked = set()
        self.region_of = {}
        self.region_latency = {}
        self.region_blocked = set()

    def route(self, src, dst):
        """``"blackholed"``, ``"lost"`` or the sampled one-way latency."""
        if frozenset((src, dst)) in self.blocked:
            return "blackholed"
        region_pair = None
        region_a = self.region_of.get(src)
        region_b = self.region_of.get(dst)
        if region_a is not None and region_b is not None \
                and region_a != region_b:
            if frozenset((region_a, region_b)) in self.region_blocked:
                return "blackholed"
            region_pair = self.region_latency.get((region_a, region_b))
        rand = self.streams.stream(f"network:{src}").random
        if region_pair is not None and region_pair[1] > 0.0 \
                and rand() < region_pair[1]:
            return "lost"
        src_link = self.links.get(src)
        if src_link is not None:
            if src_link.loss_rate > 0.0 and rand() < src_link.loss_rate:
                return "lost"
        dst_link = self.links[dst]
        if dst_link.loss_rate > 0.0 and rand() < dst_link.loss_rate:
            return "lost"
        latency = self.path_latency.get((src, dst))
        if latency is None:
            latency = (
                region_pair[0] if region_pair is not None
                else self.base_latency_s
            )
        if src_link is not None:
            latency += src_link.latency_s
            if src_link.jitter_s:
                latency += src_link.jitter_s * rand()
        latency += dst_link.latency_s
        if dst_link.jitter_s:
            latency += dst_link.jitter_s * rand()
        return latency


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.lists(_links, min_size=3, max_size=3),
    st.lists(_steps, min_size=1, max_size=12),
)
def test_path_records_match_the_per_packet_rule(seed, links, steps):
    from repro.simnet.packet import Datagram

    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    ref = ReferenceFabric(SeededStreams(seed), net.base_latency_s)
    arrivals = []

    def add_host(name, link):
        net.create_host(name, link=link).bind(
            1, lambda d: arrivals.append(sim.now), recv_cpu_cost_s=0.0
        )
        ref.links[name] = link

    def send(src, dst):
        sim.run_for(0.37)
        now = sim.now
        lost, blackholed = net.lost_packets, net.blackholed_packets
        net.route_future(
            Datagram(Address(src, 1), Address(dst, 1), "x", 100), now
        )
        sim.run()
        got = (
            tuple(arrivals),
            net.lost_packets - lost,
            net.blackholed_packets - blackholed,
        )
        del arrivals[:]
        expected = ref.route(src, dst)
        if expected == "blackholed":
            assert got == ((), 1, 1)
        elif expected == "lost":
            assert got == ((), 1, 0)
        else:
            assert got == ((now + (now - now + expected),), 0, 0)

    def send_over_every_pair():
        for src in HOSTS:  # h3 sends before it is registered, too
            for dst in ref.links:
                if src != dst:
                    send(src, dst)

    for name, link in zip(HOSTS, links):
        add_host(name, link)
    send_over_every_pair()
    for kind, *args in steps:
        if kind == "set_link":
            if args[0] in ref.links:
                net.host(args[0]).link = ref.links[args[0]] = args[1]
        elif kind == "add_host":
            if "h3" not in ref.links:
                add_host("h3", args[0])
        elif kind == "set_path_latency":
            net.set_path_latency(*args)
            ref.path_latency[(args[0], args[1])] = args[2]
            ref.path_latency[(args[1], args[0])] = args[2]
        elif kind == "set_region":
            net.set_region(*args)
            ref.region_of[args[0]] = args[1]
        elif kind == "set_region_latency":
            net.set_region_latency(*args)
            ref.region_latency[(args[0], args[1])] = args[2:]
            ref.region_latency[(args[1], args[0])] = args[2:]
        else:
            getattr(net, kind)(*args)
            table = ref.blocked if kind == "set_path_blocked" \
                else ref.region_blocked
            (table.add if args[2] else table.discard)(frozenset(args[:2]))
        send_over_every_pair()
    for name in HOSTS:
        assert net.streams.stream(f"network:{name}").getstate() == \
            ref.streams.stream(f"network:{name}").getstate()
