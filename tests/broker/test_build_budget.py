"""Build budget: how many route computations a fabric's build costs.

A builder lists its links and wires them all before routing.  On the
central plane that is one breadth-first search per broker for the whole
build, not one per broker per link; on the link-state plane each broker
originates one member LSA for all its link-ups, and SPF back-off
(RFC 8405) folds the burst of arrivals into a few Dijkstras.  Counts,
not timings.
"""

import collections

from repro.broker import BrokerNetwork, MeshTiming
from repro.broker import mesh as mesh_module

SIZES = [8] * 8
BROKERS = sum(SIZES)


def count_first_hops(monkeypatch):
    """Count :meth:`BrokerNetwork._first_hops` calls, by source."""
    calls = collections.Counter()
    first_hops = BrokerNetwork._first_hops

    def spy(self, source):
        calls[source] += 1
        return first_hops(self, source)

    monkeypatch.setattr(BrokerNetwork, "_first_hops", spy)
    return calls


def routes_of(bnet):
    """Every broker's route table as an item list (order counts)."""
    return {b.broker_id: list(b._routes.items()) for b in bnet.brokers()}


def test_central_build_computes_routes_once_per_broker(net, monkeypatch):
    calls = count_first_hops(monkeypatch)
    bnet = BrokerNetwork.hierarchical(net, SIZES)
    assert len(calls) == BROKERS
    assert set(calls.values()) == {1}
    for broker in bnet.brokers():
        assert len(broker._routes) == BROKERS - 1


def test_central_build_routes_equal_per_link_connects(sim, net, monkeypatch):
    """Wiring every link before routing lands on the tables that routing
    after each link did, tie order included."""
    calls = count_first_hops(monkeypatch)
    edges = []
    repeer = BrokerNetwork._repeer

    def record(self, a, b):
        edges.append((a, b))
        repeer(self, a, b)

    monkeypatch.setattr(BrokerNetwork, "_repeer", record)
    built = BrokerNetwork.hierarchical(net, SIZES, name_prefix="built")
    assert sum(calls.values()) == BROKERS
    by_link = BrokerNetwork(net)
    for name in built.graph:
        by_link.add_broker(name.replace("built", "link"))
    for a, b in list(edges):
        by_link.connect(a.replace("built", "link"), b.replace("built", "link"))
    assert sum(calls.values()) == BROKERS * (1 + len(built._edges()))
    renamed = {
        name.replace("built", "link"): [
            (destination.replace("built", "link"), hop.replace("built", "link"))
            for destination, hop in routes
        ]
        for name, routes in routes_of(built).items()
    }
    assert routes_of(by_link) == renamed


def count_dijkstras(monkeypatch):
    """Count :func:`repro.broker.mesh.dijkstra` calls, by computing broker."""
    calls = collections.Counter()
    dijkstra = mesh_module.dijkstra

    def spy(me, claimed, costs):
        calls[me] += 1
        return dijkstra(me, claimed, costs)

    monkeypatch.setattr(mesh_module, "dijkstra", spy)
    return calls


def test_link_state_build_originates_one_lsa_per_broker(sim, net):
    bnet = BrokerNetwork.hierarchical(net, SIZES, mesh=MeshTiming())
    sim.run_for(0.5)  # before the first heartbeat tick
    assert [b.lsas_originated for b in bnet.brokers()] == [1] * BROKERS


def test_link_state_build_converges_in_few_dijkstras(sim, net, monkeypatch):
    calls = count_dijkstras(monkeypatch)
    bnet = BrokerNetwork.hierarchical(net, SIZES, mesh=MeshTiming())
    sim.run_for(0.1)
    for broker in bnet.brokers():
        assert len(broker._routes) == BROKERS - 1, broker.broker_id
    sim.run_for(0.9)
    assert set(calls) == set(bnet.broker_ids())
    assert max(calls.values()) <= 10, calls.most_common(3)
