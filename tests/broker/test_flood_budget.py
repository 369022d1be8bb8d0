"""Flood budget: how often one subscription advert is received.

Adverts are flooded by coverage (``broker/adverts.py``): each carries
the brokers it was already sent to, and a receiver forwards it only to
its peers outside that set.  A 4-broker full mesh hears each advert
exactly 3 times (the origin's own sends; nobody forwards), the 64-broker
``hierarchical([8] * 8)`` graph at most twice per other broker, and a
ring no more often than the per-link re-flood did (the origin's two
sends plus one forward at each other broker).  Counts, not timings.
"""

import collections

import pytest

from repro.broker import BrokerNetwork

from .conftest import make_client


def spy_adverts(bnet):
    """Count every SubAdvert each broker receives: returns (receptions
    per advert, brokers reached per advert), both keyed by (origin,
    version)."""
    receptions = collections.Counter()
    reached = collections.defaultdict(set)
    for broker in bnet.brokers():
        handler = broker.adverts.on_advert

        def spy(advert, from_peer, handler=handler, me=broker.broker_id):
            key = (advert.origin_broker, advert.seq)
            receptions[key] += 1
            reached[key].add(me)
            handler(advert, from_peer)

        broker.adverts.on_advert = spy
    return receptions, reached


def churn(net, sim, bnet, brokers):
    """One subscriber per named broker takes a pattern of its own, and
    the first also drops it again."""
    clients = [
        make_client(net, sim, bnet.broker(name), f"sub-{index}")
        for index, name in enumerate(brokers)
    ]
    for index, client in enumerate(clients):
        client.subscribe(f"/flood/{index}/#", lambda event: None)
    sim.run_for(1.0)
    clients[0].unsubscribe("/flood/0/#")
    sim.run_for(1.0)


def check(bnet, receptions, reached, budget):
    everyone = set(bnet.broker_ids())
    assert receptions, "no advert was flooded"
    for (origin, seq), count in receptions.items():
        assert count <= budget, (origin, seq, count)
        assert reached[(origin, seq)] == everyone - {origin}, (origin, seq)


def test_full_mesh_hears_each_advert_exactly_once_per_broker(net, sim):
    bnet = BrokerNetwork.hierarchical(net, [4])
    receptions, reached = spy_adverts(bnet)
    churn(net, sim, bnet, bnet.broker_ids())
    check(bnet, receptions, reached, budget=3)
    assert set(receptions.values()) == {3}
    assert len(receptions) == 5  # four subscriptions, one withdrawal


def test_hierarchical_graph_hears_each_advert_at_most_twice_per_broker(net, sim):
    bnet = BrokerNetwork.hierarchical(net, [8] * 8)
    receptions, reached = spy_adverts(bnet)
    names = bnet.broker_ids()
    churn(net, sim, bnet, names[::5])
    check(bnet, receptions, reached, budget=2 * (len(names) - 1))


@pytest.mark.parametrize("size", [3, 5, 6])
def test_ring_hears_each_advert_no_more_often_than_a_reflood(net, sim, size):
    bnet = BrokerNetwork.ring(net, size)
    receptions, reached = spy_adverts(bnet)
    churn(net, sim, bnet, bnet.broker_ids())
    check(bnet, receptions, reached, budget=size + 1)
