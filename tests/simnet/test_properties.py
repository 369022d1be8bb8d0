"""Property-based tests on the simulation substrate."""

from collections import deque

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
    sim = Simulator()
    net = Network(sim, base_latency_s=0.0)
    link = LinkProfile(bandwidth_bps=rate, latency_s=0.0)
    a = net.create_host("a", link=link)
    done = []
    net.create_host("b", link=link).bind(
        1, lambda d: done.append(sim.now), recv_cpu_cost_s=0.0
    )
    for size in sizes:
        a.send(1, Address("b", 1), b"", size)
    sim.run()  # no latency anywhere: the last arrival is the last tx_done
    expected = sum(sizes) * 8.0 / rate
    assert abs(done[-1] - expected) < 1e-6 * max(1.0, expected)
    assert a.nic.sent_packets == len(sizes)


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
        src_link = self.links[src]
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
        host = net.host(src)
        host.send(1, Address(dst, 1), "x", 100)
        tx_done = now + 100 * host.nic._sec_per_byte  # an idle NIC
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
            assert got == ((now + ((tx_done - now) + expected),), 0, 0)

    def send_over_every_pair():
        for src in ref.links:
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
        # The reference draws from the Python stream the generator is
        # seeded like: equal states are equal draws.
        assert net.draws(name).getstate() == \
            ref.streams.stream(f"network:{name}").getstate()[1]


# ------------------------------------------ the fused send vs. its stages
#
# ``Host.send`` does in one frame what three stages did one after another:
# ``Nic.enqueue`` (the serialization arithmetic and tail drop), then
# ``Network.route_future`` (taps, path, loss and jitter draws), then
# ``Simulator.post`` (the arrival).  The reference keeps those stages as
# they were, resolving the path from the network's live tables for every
# packet.  Generated traffic goes through both on twin networks: lossy and
# jittered links, NICs slow enough to queue and small enough to tail-drop,
# blackholed pairs and regions, a firewall, loopback, multicast, a tap
# added mid-run and ``Host.link`` reassigned mid-run.  The arrivals (time
# and order), NIC and network counters, tap sightings and every host's
# random stream must come out the same.

GROUP = "233.1.0.7"
_send_links = st.builds(
    LinkProfile,
    bandwidth_bps=st.sampled_from((1e6, 1e8)),
    latency_s=st.sampled_from((0.0, 0.0002, 0.003)),
    jitter_s=st.sampled_from((0.0, 0.0005)),
    loss_rate=st.sampled_from((0.0, 0.0, 0.2)),
)
_send_hosts = ("s0", "s1", "s2", "s3")
_send_actions = st.one_of(
    st.tuples(
        st.just("send"), st.sampled_from(_send_hosts),
        st.sampled_from(_send_hosts), st.integers(1, 2),
        st.sampled_from((60, 700, 1400)),
    ),
    st.tuples(
        st.just("send"), st.sampled_from(_send_hosts), st.just(GROUP),
        st.integers(1, 2), st.sampled_from((60, 700, 1400)),
    ),
    st.tuples(
        st.just("burst"), st.sampled_from(_send_hosts),
        st.sampled_from(_send_hosts), st.integers(2, 8),
    ),
    st.tuples(
        st.just("set_path_blocked"), st.sampled_from(_send_hosts),
        st.sampled_from(_send_hosts), st.booleans(),
    ),
    st.tuples(st.just("set_region_blocked"), st.booleans()),
    st.tuples(st.just("set_link"), st.sampled_from(_send_hosts), _send_links),
    st.tuples(st.just("add_tap")),
)
_send_scenario = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**32),
    "links": st.lists(_send_links, min_size=4, max_size=4),
    "firewalled": st.sampled_from((None,) + _send_hosts),
    "members": st.lists(
        st.tuples(st.sampled_from(_send_hosts), st.integers(1, 2)),
        min_size=1,
        max_size=4,
    ),
    "actions": st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=0.05), _send_actions),
        min_size=1,
        max_size=25,
    ),
})


def staged_send(host, taps, src_port, dst, payload, size):
    """``Host.send`` as the three stages it replaced, acting on the same
    host, NIC and network state; ``taps`` stands for the network's."""
    from repro.simnet.node import Host
    from repro.simnet.packet import Datagram

    datagram = Datagram(Address(host.name, src_port), dst, payload, size)
    if dst.host == host.name:
        host.sim.post(Host.LOOPBACK_LATENCY_S, host.deliver, (datagram,))
        return True
    if host.firewall is not None:
        host.firewall.note_outbound(datagram)
    return staged_enqueue(host, datagram, taps)


def staged_enqueue(host, datagram, taps):
    """``Nic.enqueue``: purge the ledger, tail-drop, serialize.  A NIC
    that never queued has no ledger yet: it reads as empty."""
    nic, now, size = host.nic, host.sim.now, datagram.size
    pending, queued = nic._pending, nic._queued_bytes
    while pending and pending[0][0] <= now:
        queued -= pending.popleft()[1]
    if queued + size > nic.queue_limit_bytes:
        nic._queued_bytes = queued
        nic.dropped_packets += 1
        return False
    free_at = nic._free_at
    start = free_at if free_at > now else now
    done = start + size * nic._sec_per_byte
    nic._free_at = done
    if start > now:
        if pending is None:
            pending = nic._pending = deque()
        pending.append((start, size))
        queued += size
    nic._queued_bytes = queued
    nic.sent_packets += 1
    nic.sent_bytes += size
    staged_route(host.network, datagram, done, taps)
    return True


def staged_route(net, datagram, tx_done, taps):
    """``Network.route_future`` with the path resolved from the tables,
    then ``Simulator.post``."""
    from repro.simnet.packet import Datagram

    for observer in taps:
        observer(datagram)
    src_name, dst_name = datagram.src.host, datagram.dst.host
    if not net.has_host(dst_name):
        src = datagram.src
        for member in sorted(net.group_members(dst_name)):
            if member != src:
                copy = Datagram(src, member, datagram.payload, datagram.size)
                staged_route(net, copy, tx_done, ())
        return
    if net.path_blocked(src_name, dst_name) or \
            net.region_path_blocked(src_name, dst_name):
        net.lost_packets += 1
        net.blackholed_packets += 1
        return
    region_a, region_b = net.region_of(src_name), net.region_of(dst_name)
    wan = None if region_a == region_b else net.region_latency(region_a, region_b)
    region_loss = 0.0 if wan is None else wan[1]
    src_link, dst_link = net.host(src_name).link, net.host(dst_name).link
    rand = net.draws(src_name).random
    if (
        (region_loss > 0.0 and rand() < region_loss)
        or (src_link.loss_rate > 0.0 and rand() < src_link.loss_rate)
        or (dst_link.loss_rate > 0.0 and rand() < dst_link.loss_rate)
    ):
        net.lost_packets += 1
        return
    latency = net.fabric_latency(src_name, dst_name) + src_link.latency_s
    if src_link.jitter_s:
        latency += src_link.jitter_s * rand()
    latency += dst_link.latency_s
    if dst_link.jitter_s:
        latency += dst_link.jitter_s * rand()
    net.delivered_packets += 1
    sim = net.sim
    sim.post(tx_done - sim.now + latency, net.host(dst_name).deliver, (datagram,))


def send_traffic(scenario, staged):
    import functools

    from repro.simnet import Firewall, FirewallPolicy

    sim = Simulator()
    net = Network(sim, SeededStreams(scenario["seed"]))
    taps = []
    arrivals = []
    for name, link in zip(_send_hosts, scenario["links"]):
        host = net.create_host(name, link=link)
        host.nic.queue_limit_bytes = 4000
        for port in (1, 2):
            host.bind(port, lambda d, port=port: arrivals.append(
                (sim.now, d.src, d.dst.host, port, d.payload, d.size)
            ))
        if staged:
            host.send = functools.partial(staged_send, host, taps)
    if scenario["firewalled"] is not None:
        Firewall(FirewallPolicy(open_ports={2})).attach(
            net.host(scenario["firewalled"])
        )
    for name, port in scenario["members"]:
        net.join_group(GROUP, Address(name, port))
    for region, names in (("east", ("s0", "s1")), ("west", ("s2", "s3"))):
        for name in names:
            net.set_region(name, region)
    net.set_region_latency("east", "west", 0.02, loss_rate=0.1)
    tapped = []
    serial = [0]

    def act(action):
        kind, *args = action
        if kind in ("send", "burst"):
            src, dst = args[0], args[1]
            port, size, count = (args[2], args[3], 1) if kind == "send" \
                else (1, 1400, args[2])
            for _ in range(count):
                serial[0] += 1
                net.host(src).send(1, Address(dst, port), serial[0], size)
        elif kind == "set_path_blocked":
            net.set_path_blocked(*args)
        elif kind == "set_region_blocked":
            net.set_region_blocked("east", "west", args[0])
        elif kind == "set_link":
            net.host(args[0]).link = args[1]
        else:
            def tap(d):
                tapped.append((sim.now, d.src, d.dst, d.size))
            taps.append(tap)
            if not staged:
                net.add_tap(tap)

    for at, action in scenario["actions"]:
        sim.schedule(at, act, action)
    sim.run()
    return {
        "arrivals": arrivals,
        "tapped": tapped,
        "nics": [
            (h.nic.sent_packets, h.nic.sent_bytes, h.nic.dropped_packets,
             h.nic.queued_bytes, h.nic.queue_depth)
            for h in net.hosts()
        ],
        "network": (
            net.delivered_packets, net.lost_packets, net.blackholed_packets
        ),
        "hosts": [
            (h.received_packets, h.firewall_blocked_packets,
             net.draws(h.name).getstate())
            for h in net.hosts()
        ],
        "now": sim.now,
    }


@settings(deadline=None, max_examples=80)
@given(_send_scenario)
def test_the_fused_send_is_its_three_stages(scenario):
    fused = send_traffic(scenario, staged=False)
    staged = send_traffic(scenario, staged=True)
    assert fused == staged
