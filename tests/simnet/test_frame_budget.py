"""Hot-path frame budget: what one delivery costs the simulator, in
Python frames.

Hardware-independent: counts profiler ``call`` events instead of timing,
and call counts repeat exactly, so this cannot flake.  One non-reliable
publish travels client (host A) -> broker (host B) -> UDP subscriber
(host C) over warm paths; every frame entered in ``repro/simnet/`` and in
the broker's per-packet modules during that trip is counted.  The trip
used to cost 56 — ten of them ``Simulator.now`` property reads, and a
full path resolution per wire packet.  A frame creeping back shows up
here by name.
"""

import collections
import os
import sys

import repro.simnet.network as network_module
from repro.broker import Broker, BrokerClient
from repro.simnet import Network, SeededStreams, Simulator

FRAME_BUDGET = 40

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
