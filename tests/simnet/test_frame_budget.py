"""Hot-path frame budget: what one delivery costs the simulator, in
Python frames and in kernel events.

Hardware-independent: counts profiler ``call`` events instead of timing,
and call counts repeat exactly, so this cannot flake.  One non-reliable
publish travels client (host A) -> broker (host B) -> UDP subscriber
(host C) over warm paths; every frame entered in ``repro/simnet/`` and in
the broker's per-packet modules during that trip is counted.  The trip
used to cost 56 — ten of them ``Simulator.now`` property reads, and a
full path resolution per wire packet — and 40 while NIC, route, post,
receive and client dispatch were frames of their own.  A frame creeping
back shows up here by name.

A fan-out's sends run as one CPU job (DESIGN.md §7), and a receiver
whose CPU is idle finishes the receive inside the arrival's event, so a
delivery costs about one kernel event: not the two it took when the
receive was an event of its own, nor the three a sender task per send
made.  Per-host random streams are what let
a train draw ahead; the last test pins that one host's traffic leaves
every other host's draws alone.
"""

import collections
import os
import sys
import types

import repro.simnet.network as network_module
from repro.broker import Broker, BrokerClient
from repro.simnet import (
    Address, ChaosSchedule, LinkProfile, Network, SeededStreams, Simulator,
)

FRAME_BUDGET = 22
#: Kernel events per delivery on a 400-way fan-out: 3.0 before trains,
#: 2.05 before an idle receiver finished its receive in place (4,140
#: events for 4,000 deliveries since).
EVENT_BUDGET = 1.035
#: Frames per delivery on that fan-out, counted like FRAME_BUDGET: 14.19
#: while the send and receive ends were a frame per stage (56,762 for
#: 4,000 deliveries), 24,894 since — Host.send, Datagram.__init__,
#: Host.deliver, send_sized, _on_datagram and _dispatch per delivery.
FRAMES_PER_DELIVERY = 6.23

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(network_module.__file__)))
HOT_DIRECTORY = os.path.join(_SRC, "simnet") + os.sep
HOT_FILES = {
    os.path.join(_SRC, "broker", name)
    for name in ("links.py", "client.py", "topic.py")
}


def hot_frames(operation):
    """``{file:function: calls}`` over the hot-path files during
    ``operation()``."""
    frames = collections.Counter()

    def profiler(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(HOT_DIRECTORY) or filename in HOT_FILES:
                frames[
                    f"{os.path.relpath(filename, _SRC)}:{frame.f_code.co_name}"
                ] += 1

    sys.setprofile(profiler)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return frames


class CountingDict(dict):
    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)


def test_one_warm_delivery_stays_within_the_frame_budget(monkeypatch):
    sim = Simulator()
    net = Network(sim, SeededStreams(3))
    broker = Broker(net.create_host("b"), broker_id="b0")
    publisher = BrokerClient(net.create_host("a"), client_id="pub")
    subscriber = BrokerClient(net.create_host("c"), client_id="sub")
    # Regions and a cut elsewhere, so the resolver has tables to consult.
    net.create_host("d")
    for host, region in (("a", "east"), ("b", "east"), ("c", "west")):
        net.set_region(host, region)
    net.set_region_latency("east", "west", 0.040)
    net.set_path_blocked("a", "d")
    publisher.connect(broker)
    subscriber.connect(broker)
    sim.run_for(1.0)
    got = []
    subscriber.subscribe("/room/video", got.append)
    sim.run_for(1.0)
    publisher.publish("/room/video", b"warm-up", 200)
    sim.run_for(1.0)
    assert len(got) == 1

    frozensets = []

    def counting_frozenset(*args):
        frozensets.append(args)
        return frozenset(*args)

    monkeypatch.setattr(
        network_module, "frozenset", counting_frozenset, raising=False
    )
    net._region_of = CountingDict(net._region_of)

    publisher.publish("/room/video", b"measured", 200)
    frames = hot_frames(lambda: sim.run_for(1.0))

    assert len(got) == 2
    assert frozensets == [] and net._region_of.reads == 0
    breakdown = "\n".join(
        f"{calls:4d}  {name}" for name, calls in sorted(frames.items())
    )
    assert sum(frames.values()) <= FRAME_BUDGET, breakdown


def test_a_400_way_fan_out_costs_one_kernel_event_per_delivery():
    sim = Simulator()
    net = Network(sim, SeededStreams(9))
    broker = Broker(net.create_host("b"))
    publisher = BrokerClient(net.create_host("pub"), client_id="pub")
    publisher.connect(broker)
    got = []
    for n in range(400):  # Figure 3's shape: 20 receiver hosts x 20
        if n % 20 == 0:
            host = net.create_host(f"r{n // 20}")
        subscriber = BrokerClient(host, client_id=f"s{n}")
        subscriber.connect(broker)
        subscriber.subscribe("/room/video", got.append)
    sim.run_for(1.0)

    before = sim.events_processed
    for n in range(10):
        sim.schedule(0.05 * n, publisher.publish, "/room/video", n, 1000)
    frames = hot_frames(lambda: sim.run_for(0.6))

    assert len(got) == 4000
    events = sim.events_processed - before
    assert events / len(got) <= EVENT_BUDGET, events
    breakdown = "\n".join(
        f"{calls:6d}  {name}" for name, calls in sorted(frames.items())
    )
    assert sum(frames.values()) / len(got) <= FRAMES_PER_DELIVERY, breakdown


def _traffic(extra_sender=False, burst=False):
    """a -> b and c -> d, a datagram a millisecond each for 100 ms over
    jittered, lossy links; optionally e -> d beside them, or a loss burst
    on b.  Returns each pair's arrival times and the senders' streams."""
    sim = Simulator()
    net = Network(sim, SeededStreams(17))
    link = LinkProfile(latency_s=0.0002, jitter_s=0.001, loss_rate=0.1)
    arrivals = collections.defaultdict(list)
    for name in "abcde":
        host = net.create_host(name, link=link)
        host.bind(
            1,
            lambda d: arrivals[d.src.host, d.dst.host].append(sim.now),
            recv_cpu_cost_s=0.0,
        )
    pairs = [("a", "b"), ("c", "d")] + ([("e", "d")] if extra_sender else [])
    for n in range(100):
        for src, dst in pairs:
            sim.schedule(
                0.001 * n, net.host(src).send, 1, Address(dst, 1), n, 200
            )
    if burst:
        chaos = ChaosSchedule(types.SimpleNamespace(network=net))
        chaos.loss_burst(0.02, "b", duration=0.04, loss_rate=0.5)
    sim.run()
    streams = {
        name: net.draws(name).getstate()
        for name in "abcde"
    }
    return arrivals, streams


def test_one_hosts_traffic_leaves_other_hosts_draws_alone():
    arrivals, streams = _traffic()
    more, more_streams = _traffic(extra_sender=True)
    burst, burst_streams = _traffic(burst=True)
    # Another sender into d: a and c draw and deliver exactly as before.
    assert more["a", "b"] == arrivals["a", "b"]
    assert more["c", "d"] == arrivals["c", "d"]
    assert more["e", "d"]
    assert {h: more_streams[h] for h in "abcd"} == {
        h: streams[h] for h in "abcd"
    }
    # A loss burst on b moves a's draws (b's loss is drawn on a's stream)
    # and nothing on the c -> d pair.
    assert burst["a", "b"] != arrivals["a", "b"]
    assert burst["c", "d"] == arrivals["c", "d"]
    assert burst_streams["c"] == streams["c"]
    assert burst_streams["a"] != streams["a"]
