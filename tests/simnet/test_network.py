"""Tests for hosts + network fabric routing."""

import pytest

from repro.simnet import Address, LinkProfile, Network, SeededStreams, Simulator
from repro.simnet.network import UnknownHostError
from repro.simnet.node import PortInUseError


def test_unicast_delivery_between_hosts(net, sim):
    a = net.create_host("a")
    b = net.create_host("b")
    got = []
    b.bind(5000, lambda d: got.append((d.payload, sim.now)))
    a.send(1234, Address("b", 5000), "hello", 100)
    sim.run()
    assert len(got) == 1
    payload, when = got[0]
    assert payload == "hello"
    assert when > 0.0  # NIC serialization + latency + CPU


def test_duplicate_host_name_rejected(net):
    net.create_host("a")
    with pytest.raises(ValueError):
        net.create_host("a")


def test_unknown_destination_raises(net, sim):
    a = net.create_host("a")
    # The fused NIC routes at enqueue time, so the bad destination is
    # rejected synchronously at the send call (fail-fast) rather than
    # when serialization would have completed.
    with pytest.raises(UnknownHostError):
        a.send(1, Address("ghost", 1), "x", 10)


def test_unbound_port_discards(net, sim):
    a = net.create_host("a")
    b = net.create_host("b")
    a.send(1, Address("b", 9999), "x", 10)
    sim.run()
    assert b.discarded_packets == 1
    assert b.received_packets == 0


def test_port_rebind_rejected(net):
    a = net.create_host("a")
    a.bind(80, lambda d: None)
    with pytest.raises(PortInUseError):
        a.bind(80, lambda d: None)
    a.unbind(80)
    a.bind(80, lambda d: None)  # ok after unbind


def test_ephemeral_ports_are_unique(net):
    a = net.create_host("a")
    ports = {a.allocate_port() for _ in range(100)}
    assert len(ports) == 100


def test_path_latency_override(net, sim):
    us = net.create_host("us", link=LinkProfile(latency_s=0.0, jitter_s=0.0))
    cn = net.create_host("cn", link=LinkProfile(latency_s=0.0, jitter_s=0.0))
    net.set_path_latency("us", "cn", 0.100)
    got = []
    cn.bind(1, lambda d: got.append(sim.now), recv_cpu_cost_s=0.0)
    us.send(2, Address("cn", 1), "x", 125)  # 125B at 100Mb/s = 10us tx
    sim.run()
    assert got[0] == pytest.approx(0.100, abs=0.001)


def test_lossy_link_drops_packets(sim, streams):
    net = Network(sim, streams)
    a = net.create_host("a", link=LinkProfile(loss_rate=0.5))
    b = net.create_host("b")
    got = []
    b.bind(1, lambda d: got.append(1))
    for _ in range(200):
        a.send(2, Address("b", 1), "x", 10)
    sim.run()
    assert 40 < len(got) < 160  # ~50% loss
    assert net.lost_packets == 200 - len(got)


def test_loss_is_deterministic_for_fixed_seed():
    def run(seed):
        sim = Simulator()
        net = Network(sim, SeededStreams(seed))
        a = net.create_host("a", link=LinkProfile(loss_rate=0.3))
        b = net.create_host("b")
        got = []
        b.bind(1, lambda d: got.append(1))
        for _ in range(100):
            a.send(2, Address("b", 1), "x", 10)
        sim.run()
        return len(got)

    assert run(7) == run(7)


def test_receive_charges_cpu(net, sim):
    a = net.create_host("a")
    b = net.create_host("b", recv_cpu_cost_s=0.010)
    got = []
    b.bind(1, lambda d: got.append(sim.now))
    a.send(2, Address("b", 1), "x", 10)
    sim.run()
    assert got[0] >= 0.010


def test_network_tap_sees_all_datagrams(net, sim):
    a = net.create_host("a")
    b = net.create_host("b")
    b.bind(1, lambda d: None)
    seen = []
    net.add_tap(seen.append)
    a.send(2, Address("b", 1), "x", 10)
    a.send(2, Address("b", 1), "y", 10)
    sim.run()
    assert len(seen) == 2


# ---------------------------------------------------------- path records
#
# Each host keeps one path record per destination and reuses it until a
# mutator of one of its inputs drops it.  Each case below warms the record
# with a first send, mutates, sends again, and requires the second send to
# come out bit-equal to the same send on a network that had the mutation
# in place before anything was resolved.

LOSSY = LinkProfile(latency_s=0.004, jitter_s=0.001, loss_rate=0.3)


def _nothing(network):
    pass


def _label_regions(network):
    network.set_region("a", "east")
    network.set_region("b", "west")


def _wan(network):
    network.set_region_latency("east", "west", 0.080, loss_rate=0.4)


def _set_link(name):
    def mutate(network):
        network.host(name).link = LOSSY
    return mutate


#: name -> (what is in place before the first send, the mutation under
#: test, the sending host name); each isolates one mutator.
MUTATORS = {
    "set_path_latency": (
        _nothing, lambda network: network.set_path_latency("a", "b", 0.25), "a"
    ),
    "set_path_blocked": (
        _nothing, lambda network: network.set_path_blocked("b", "a"), "a"
    ),
    "set_region": (_wan, _label_regions, "a"),
    "set_region_latency": (_label_regions, _wan, "a"),
    "set_region_blocked": (
        _label_regions,
        lambda network: network.set_region_blocked("west", "east"),
        "a",
    ),
    "src host.link": (_nothing, _set_link("a"), "a"),
    "dst host.link": (_nothing, _set_link("b"), "a"),
}


def _second_send(prepare, mutate, src, warm, rng_state=None):
    """Outcome of one ``src`` -> b send at t=1.0 with ``mutate`` applied:
    on a network whose first send at t=0 resolved the pair without it
    (``warm``), or on one that resolved nothing before the mutation and
    whose sender's ``network:<src>`` stream was moved to ``rng_state``."""
    sim = Simulator()
    net = Network(sim, SeededStreams(9))
    net.create_host("a", link=LinkProfile(jitter_s=0.0005))
    net.create_host("b", link=LinkProfile(jitter_s=0.0005))
    prepare(net)
    arrivals = []
    net.host("b").bind(
        1, lambda d: arrivals.append(sim.now), recv_cpu_cost_s=0.0
    )
    rng = net.draws(src)

    def send():
        net.host(src).send(1, Address("b", 1), "x", 100)

    if warm:
        send()
        sim.run(until=1.0)
        assert len(arrivals) == 1
        mutate(net)
        rng_state = rng.getstate()
    else:
        mutate(net)
        sim.run(until=1.0)
        rng.setstate(rng_state)
    del arrivals[:]
    lost, blackholed = net.lost_packets, net.blackholed_packets
    send()
    sim.run()
    outcome = (
        tuple(arrivals),
        net.lost_packets - lost,
        net.blackholed_packets - blackholed,
        rng.getstate(),
    )
    return outcome, rng_state


@pytest.mark.parametrize("name", sorted(MUTATORS))
def test_mutator_drops_the_warm_path_record(name):
    prepare, mutate, src = MUTATORS[name]
    warm, rng_state = _second_send(prepare, mutate, src, warm=True)
    cold, _ = _second_send(
        prepare, mutate, src, warm=False, rng_state=rng_state
    )
    assert warm == cold
    # ... and the mutation is one a stale record would have missed.
    stale, _ = _second_send(prepare, _nothing, src, warm=True)
    assert warm != stale


def test_a_tap_added_mid_run_sees_warm_paths(net, sim):
    a = net.create_host("a")
    net.create_host("b").bind(1, lambda d: None)
    a.send(2, Address("b", 1), "warm", 10)  # a's record to b: no taps
    sim.run()
    seen = []
    net.add_tap(lambda d: seen.append(d.payload))
    a.send(2, Address("b", 1), "tapped", 10)
    sim.run()
    assert seen == ["tapped"]
