"""A plane you did not construct costs nothing: frames per routed event.

Hardware-independent, like ``tests/simnet/test_frame_budget.py``: counts
profiler ``call`` events instead of timing, and call counts repeat
exactly, so this cannot flake.  Twenty warm publishes travel publisher →
broker-0 → broker-1 → broker-2 → subscriber over a 3-broker chain, and
every frame entered in ``repro/broker/`` is counted by file and
function.  A central-plane broker builds neither the link-state mesh
(``mesh.py``), the gateway overlay (``gateway.py``) nor the geo plane
(``geo.py``), so none may see a single frame, and an unordered publish
never enters the ordering plane (``ordering.py``); a flat autonomous
broker builds the mesh only.
"""

import collections
import os
import sys

import repro.broker.broker as broker_module
from repro.broker import FAST_MESH, BrokerClient, BrokerNetwork
from repro.simnet import Network, SeededStreams, Simulator

PUBLISHES = 20
#: Frames in ``repro/broker/`` per routed event on the central chain:
#: 2,080 / 20 when the mesh and the gateway were still part of Broker,
#: 2,060 / 20 after, 1,040 / 20 once a NORMAL overload check was one
#: comparison per signal (``should_shed`` and the outbox read per hop,
#: where ``refresh``, its generators and the signal lambdas took 17), and
#: 1,000 / 20 since a plain event goes from the client transport straight
#: to ``BrokerClient._dispatch``.
FRAMES_PER_EVENT = 50.0

BROKER_DIR = os.path.dirname(os.path.abspath(broker_module.__file__))


def broker_frames(operation):
    """``{file:function: calls}`` over ``repro/broker/`` during
    ``operation()``."""
    frames = collections.Counter()

    def profiler(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if os.path.dirname(filename) == BROKER_DIR:
                name = f"{os.path.basename(filename)}:{frame.f_code.co_name}"
                frames[name] += 1

    sys.setprofile(profiler)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return frames


def warm_publishes(**options):
    """Frames entered by ``PUBLISHES`` warm publishes end to end."""
    sim = Simulator()
    net = Network(sim, SeededStreams(3))
    bnet = BrokerNetwork.chain(net, 3, **options)
    sim.run_for(2.0)
    publisher = BrokerClient(net.create_host("pub"), client_id="pub")
    publisher.connect(bnet.broker("broker-0"))
    subscriber = BrokerClient(net.create_host("sub"), client_id="sub")
    subscriber.connect(bnet.broker("broker-2"))
    sim.run_for(1.0)
    got = []
    subscriber.subscribe("/room/video", got.append)
    sim.run_for(1.0)
    publisher.publish("/room/video", b"warm-up", 200)
    sim.run_for(1.0)
    assert len(got) == 1

    def publish():
        for n in range(PUBLISHES):
            publisher.publish("/room/video", n, 200)
        sim.run_for(1.0)

    frames = broker_frames(publish)
    assert len(got) == 1 + PUBLISHES
    return bnet, frames


def in_file(frames, name):
    return {
        function: calls
        for function, calls in frames.items()
        if function.startswith(f"{name}:")
    }


def breakdown(frames):
    return "\n".join(
        f"{calls:5d}  {name}" for name, calls in sorted(frames.items())
    )


def test_central_chain_enters_no_mesh_or_gateway_frame():
    bnet, frames = warm_publishes()
    assert all(b.mesh is None and b.gateway is None for b in bnet.brokers())
    assert in_file(frames, "mesh.py") == {}, breakdown(frames)
    assert in_file(frames, "gateway.py") == {}, breakdown(frames)
    assert all(b.geo is None for b in bnet.brokers())
    assert in_file(frames, "geo.py") == {}, breakdown(frames)
    assert in_file(frames, "ordering.py") == {}, breakdown(frames)


def test_central_chain_stays_within_the_broker_frame_budget():
    _, frames = warm_publishes()
    per_event = sum(frames.values()) / PUBLISHES
    assert per_event <= FRAMES_PER_EVENT, breakdown(frames)


def test_flat_autonomous_chain_enters_no_gateway_frame():
    bnet, frames = warm_publishes(mesh=FAST_MESH)
    assert all(b.gateway is None for b in bnet.brokers())
    assert in_file(frames, "gateway.py") == {}, breakdown(frames)
    assert all(b.geo is None for b in bnet.brokers())
    assert in_file(frames, "geo.py") == {}, breakdown(frames)
