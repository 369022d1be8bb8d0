"""ChaosSchedule: deterministic fault injection on the simulation clock.

The schedule is exercised against a stub broker network (it is
duck-typed on purpose) plus the real ``Network`` path-blackhole
primitive it ultimately drives.
"""

from repro.simnet import ChaosSchedule, Network, SeededStreams, Simulator, UdpSocket
from repro.simnet.link import LinkProfile


class StubBrokerNetwork:
    """Records chaos calls; quacks just enough for ChaosSchedule."""

    def __init__(self, network):
        self.network = network
        self.calls = []

    def cut_link(self, a, b):
        self.calls.append(("cut", a, b))

    def restore_link(self, a, b):
        self.calls.append(("restore", a, b))

    def partition(self, groups):
        self.calls.append(("partition", tuple(tuple(g) for g in groups)))

    def partition_regions(self, *regions):
        self.calls.append(("partition_regions", regions))

    def heal(self):
        self.calls.append(("heal",))

    def crash_broker(self, name):
        self.calls.append(("crash", name))

    def restart_broker(self, name):
        self.calls.append(("restart", name))


def harness(seed=0):
    sim = Simulator()
    net = Network(sim, SeededStreams(5))
    stub = StubBrokerNetwork(net)
    return sim, net, stub, ChaosSchedule(stub, seed=seed)


def test_events_fire_at_scheduled_times_and_are_logged():
    sim, net, stub, chaos = harness()
    chaos.cut_link(1.0, "a", "b")
    chaos.restore_link(2.0, "a", "b")
    chaos.crash_broker(3.0, "c", restart_after=1.5)
    sim.run_for(10.0)
    assert stub.calls == [
        ("cut", "a", "b"),
        ("restore", "a", "b"),
        ("crash", "c"),
        ("restart", "c"),
    ]
    assert [(e.at, e.kind) for e in chaos.log] == [
        (1.0, "cut-link"),
        (2.0, "restore-link"),
        (3.0, "crash"),
        (4.5, "restart"),
    ]


def test_link_flap_is_cut_plus_restore():
    sim, net, stub, chaos = harness()
    chaos.link_flap(1.0, "a", "b", down_for=0.5)
    sim.run_for(5.0)
    assert stub.calls == [("cut", "a", "b"), ("restore", "a", "b")]
    assert chaos.log[1].at == 1.5


def test_partition_with_heal_after():
    sim, net, stub, chaos = harness()
    chaos.partition(2.0, [["a", "b"], ["c"]], heal_after=3.0)
    sim.run_for(10.0)
    assert stub.calls == [("partition", (("a", "b"), ("c",))), ("heal",)]
    assert chaos.log[-1].at == 5.0


def test_partition_regions_with_heal_after():
    sim, net, stub, chaos = harness()
    chaos.partition_regions(2.0, "us", "eu", heal_after=10.0)
    sim.run_for(20.0)
    assert stub.calls == [("partition_regions", ("us", "eu")), ("heal",)]
    assert [(e.at, e.kind, e.detail) for e in chaos.log] == [
        (2.0, "partition-regions", "us | eu"),
        (12.0, "heal", "all cut links"),
    ]


def test_random_flaps_are_seed_deterministic():
    def run(seed):
        sim, net, stub, chaos = harness(seed=seed)
        chaos.random_link_flaps(
            [("a", "b"), ("b", "c")], between=(0.0, 5.0), count=4,
            down_for=(0.2, 0.8),
        )
        sim.run_for(10.0)
        return [(round(e.at, 9), e.kind, e.detail) for e in chaos.log]

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_loss_burst_degrades_then_restores_host_link():
    sim = Simulator()
    net = Network(sim, SeededStreams(5))
    host = net.create_host("h", link=LinkProfile(latency_s=0.001))
    stub = StubBrokerNetwork(net)
    chaos = ChaosSchedule(stub, seed=0)
    original = host.link
    chaos.loss_burst(1.0, "h", duration=2.0, loss_rate=0.5)
    sim.run_for(1.5)
    assert host.link.loss_rate == 0.5
    sim.run_for(5.0)
    assert host.link is original
    kinds = [e.kind for e in chaos.log]
    assert kinds == ["loss-burst", "loss-burst-end"]


def test_overlapping_loss_bursts_restore_the_pristine_link():
    """Each burst used to save ``host.link`` as "original", so a second
    burst begun inside the first saved the degraded profile and restored
    *that* last, leaving the host lossy forever."""
    from repro.broker import BrokerNetwork

    sim = Simulator()
    net = Network(sim, SeededStreams(5))
    bnet = BrokerNetwork.chain(net, 2)
    host = bnet.brokers()[0].host
    pristine = host.link
    assert pristine.loss_rate == 0.0
    chaos = ChaosSchedule(bnet, seed=0)
    chaos.loss_burst(1.0, host.name, duration=5.0, loss_rate=0.2)
    chaos.loss_burst(3.0, host.name, duration=5.0, loss_rate=0.5)
    sim.run(until=2.0)
    assert host.link.loss_rate == 0.2
    sim.run(until=4.0)
    assert host.link.loss_rate == 0.5
    sim.run(until=7.0)  # the first ended; the second still holds
    assert host.link.loss_rate == 0.5
    sim.run(until=20.0)
    assert host.link is pristine


def test_nested_loss_burst_falls_back_to_the_enclosing_rate():
    sim = Simulator()
    net = Network(sim, SeededStreams(5))
    host = net.create_host("h", link=LinkProfile(latency_s=0.001))
    chaos = ChaosSchedule(StubBrokerNetwork(net), seed=0)
    pristine = host.link
    chaos.loss_burst(1.0, "h", duration=9.0, loss_rate=0.2)
    chaos.loss_burst(3.0, "h", duration=2.0, loss_rate=0.5)
    sim.run(until=4.0)
    assert host.link.loss_rate == 0.5
    sim.run(until=6.0)
    assert host.link == LinkProfile(latency_s=0.001, loss_rate=0.2)
    sim.run(until=11.0)
    assert host.link is pristine


def test_blackholed_path_drops_both_directions():
    sim = Simulator()
    net = Network(sim, SeededStreams(5))
    a = net.create_host("a")
    b = net.create_host("b")
    sock_a = UdpSocket(a, 1000)
    sock_b = UdpSocket(b, 1000)
    got = []
    sock_b.on_receive(lambda p, s, d: got.append(p))
    sock_a.on_receive(lambda p, s, d: got.append(p))

    net.set_path_blocked("a", "b", True)
    sock_a.sendto("x", 10, sock_b.local_address)
    sock_b.sendto("y", 10, sock_a.local_address)
    sim.run_for(1.0)
    assert got == []
    assert net.blackholed_packets == 2
    assert net.lost_packets == 2

    net.set_path_blocked("a", "b", False)
    sock_a.sendto("x2", 10, sock_b.local_address)
    sim.run_for(1.0)
    assert got == ["x2"]


def test_flash_crowd_staggers_arrivals_across_window():
    sim, net, stub, chaos = harness()
    arrivals = []
    chaos.flash_crowd(2.0, count=4, window_s=1.0,
                      spawn=lambda i: arrivals.append((i, sim.now)))
    sim.run_for(10.0)
    assert arrivals == [(0, 2.0), (1, 2.25), (2, 2.5), (3, 2.75)]
    assert [e.kind for e in chaos.log] == ["flash-crowd"] * 4
    assert chaos.log[0].detail == "arrival 1/4"


def test_flash_crowd_validates_arguments():
    import pytest

    sim, net, stub, chaos = harness()
    with pytest.raises(ValueError):
        chaos.flash_crowd(1.0, count=0, window_s=1.0, spawn=lambda i: None)
    with pytest.raises(ValueError):
        chaos.flash_crowd(1.0, count=5, window_s=-1.0, spawn=lambda i: None)


def test_publisher_burst_drives_publishes_at_rate():
    sim, net, stub, chaos = harness()
    published = []
    chaos.publisher_burst(1.0, duration_s=0.5, rate_hz=10.0,
                          publish=lambda i: published.append((i, sim.now)))
    sim.run_for(10.0)
    assert published == [(i, 1.0 + i * 0.1) for i in range(5)]
    # One log entry for the whole burst, not one per packet.
    assert [e.kind for e in chaos.log] == ["publisher-burst"]


def test_publisher_burst_validates_arguments():
    import pytest

    sim, net, stub, chaos = harness()
    with pytest.raises(ValueError):
        chaos.publisher_burst(1.0, duration_s=0.0, rate_hz=10.0,
                              publish=lambda i: None)
    with pytest.raises(ValueError):
        chaos.publisher_burst(1.0, duration_s=1.0, rate_hz=0.0,
                              publish=lambda i: None)
