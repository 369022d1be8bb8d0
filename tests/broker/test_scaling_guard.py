"""Control-path cost must not grow with what the broker holds.

Hardware-independent: counts profiler call events (Python and C calls)
instead of timing, and call counts repeat exactly, so this cannot flake.
The guarded operations used to rescan broker state on every call — the
gateway rebuilt and re-collapsed the cluster's whole pattern set per
subscription change, and the overload controller visited every client
outbox per evaluation.
"""

import sys

from repro.broker import FAST_MESH, Broker, BrokerClient, BrokerNetwork
from repro.broker.links import Subscribe, Unsubscribe
from repro.simnet import Network, SeededStreams, Simulator

from .conftest import make_client

MAX_GROWTH = 1.5


def count_calls(operation):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return calls


def fresh_network():
    sim = Simulator()
    return sim, Network(sim, SeededStreams(3))


def gateway_churn_calls(held):
    """Calls for one subscribe + unsubscribe (and the summary refresh
    each one triggers) at an active gateway holding ``held`` patterns
    under eight rooms — collapsed, so the summary does not change."""
    sim, net = fresh_network()
    bnet = BrokerNetwork.clustered(net, [2, 2], mesh=FAST_MESH)
    sim.run_for(10.0)
    broker = bnet.broker("broker-c0-0")
    gateway = broker.gateway
    client = make_client(net, sim, broker, "holder")
    for n in range(held):
        client.subscribe(f"/load/room-{n % 8}/member-{n}", lambda event: None)
    sim.run_for(5.0)
    assert broker.is_active_gateway and gateway.summary_collapsed
    assert len(broker._local_subs) == held
    summary = gateway.last_summary
    assert len(summary) == 8

    def churn():
        broker._on_subscribe(Subscribe("holder", "/load/room-0/extra"))
        gateway.refresh_summary()
        broker._on_unsubscribe(Unsubscribe("holder", "/load/room-0/extra"))
        gateway.refresh_summary()

    calls = count_calls(churn)
    assert gateway.last_summary == summary
    return calls


def overload_refresh_calls(clients):
    sim, net = fresh_network()
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    for n in range(clients):
        BrokerClient(net.create_host(f"c{n}"), client_id=f"c{n}").connect(broker)
    sim.run_for(2.0)
    assert broker.client_count() == clients
    return count_calls(lambda: broker.overload.refresh(sim.now))


def test_gateway_subscription_churn_is_independent_of_patterns_held():
    small = gateway_churn_calls(40)
    large = gateway_churn_calls(400)
    assert large <= small * MAX_GROWTH, (small, large)


def test_overload_refresh_is_independent_of_connected_clients():
    small = overload_refresh_calls(10)
    large = overload_refresh_calls(400)
    assert large <= small * MAX_GROWTH, (small, large)
