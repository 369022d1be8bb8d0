"""Flood budget: how often one flooded message is received.

Every versioned control-plane state is flooded by coverage
(``broker/epoch_table.flood``): each message carries the brokers it was
already sent to, and a receiver forwards it only to its peers outside
that set.  For subscription adverts a 4-broker full mesh hears each
advert exactly 3 times (the origin's own sends; nobody forwards), the
64-broker ``hierarchical([8] * 8)`` graph at most twice per other
broker, and a ring no more often than the per-link re-flood did (the
origin's two sends plus one forward at each other broker).  Link-state
adverts after a link goes down and cluster summaries after a subscribe
are heard at most twice per other broker of their scope, and reach all
of it.  Counts, not timings.
"""

import collections

import pytest

from repro.broker import FAST_MESH, BrokerNetwork

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


# ------------------------------------------- link state and summaries


def spy_receptions(bnet, owner, handler_name, key):
    """Count the messages each broker's ``owner(broker)`` handler
    receives from now on: (receptions, brokers reached), keyed by
    ``key(message)``; a message keyed None is not counted."""
    receptions = collections.Counter()
    reached = collections.defaultdict(set)
    for broker in bnet.brokers():
        plane = owner(broker)
        if plane is None:
            continue
        handler = getattr(plane, handler_name)

        def spy(message, *rest, handler=handler, me=broker.broker_id):
            counted = key(message)
            if counted is not None:
                receptions[counted] += 1
                reached[counted].add(me)
            handler(message, *rest)

        setattr(plane, handler_name, spy)
    return receptions, reached


def spy_lsas(bnet, member):
    """LSAs of the member tier (or of the gateway tier), keyed by
    (origin, epoch)."""
    return spy_receptions(
        bnet, lambda broker: broker.mesh, "on_advert",
        lambda lsa: (
            (lsa.origin_broker, lsa.epoch)
            if (lsa.cluster_id is None) == member
            else None
        ),
    )


def gateways_of(bnet):
    return {
        name
        for cluster_id in bnet.spec.clusters
        for name in bnet.spec.gateways(cluster_id)
    }


@pytest.mark.parametrize(
    "sizes, budget, at_parent",
    [([4], 6, 9), ([4] * 4, 30, 51)],
    ids=["full-mesh-4", "hierarchical-4x4"],
)
def test_lsas_after_a_link_goes_down_stay_in_budget(
    net, sim, sizes, budget, at_parent
):
    """Both ends of a removed link re-originate; each LSA is heard at
    most twice per other broker (the id-deduplicated re-flood it
    replaced was heard ``at_parent`` times or more)."""
    bnet = BrokerNetwork.hierarchical(net, sizes, mesh=FAST_MESH)
    sim.run_for(3.0)
    receptions, reached = spy_lsas(bnet, member=True)
    names = bnet.broker_ids()
    bnet.disconnect(names[0], names[1])
    sim.run_for(3.0)
    check(bnet, receptions, reached, budget=budget)
    assert budget == 2 * (len(names) - 1) < at_parent
    assert {origin for origin, _ in receptions} == {names[0], names[1]}


def test_cluster_summary_after_a_subscribe_stays_in_budget(net, sim):
    """The per-link re-flood was heard 35 times per summary; coverage at
    most 13 times: the active gateway's 5 sends, then 2 from each of
    c1-0, c1-1, c3-0 and c3-1 into cluster c2, whose gateways then hold
    a copy that covers every gateway."""
    bnet = BrokerNetwork.clustered(net, [4] * 4, mesh=FAST_MESH)
    sim.run_for(5.0)
    gateways = gateways_of(bnet)
    receptions, reached = spy_receptions(
        bnet, lambda broker: broker.gateway, "on_interest",
        lambda advert: (advert.origin_gateway, advert.epoch),
    )
    make_client(net, sim, bnet.broker("broker-c0-3"), "sub").subscribe(
        "/flood/summary/#", lambda event: None
    )
    sim.run_for(2.0)
    assert receptions, "no summary was flooded"
    for (origin, epoch), count in receptions.items():
        assert count <= 2 * (len(gateways) - 1), (origin, epoch, count)
        assert reached[(origin, epoch)] == gateways - {origin}, (origin, epoch)


def test_gateway_lsas_after_a_gateway_link_goes_down_stay_in_budget(net, sim):
    """Without the c0-0–c1-0 link the overlay has 8 gateways and 19
    links; the per-link re-flood was heard 2 * 19 - 7 = 31 times per
    LSA.  Coverage hears c0-0's at most 16 times, whatever the arrival
    order: its 4 sends; c0-1, c1-1, c3-0 and c3-1 then forward to 1, 3,
    2 and 2 uncovered peers; c1-0, c2-0 and c2-1 forward once more to at
    most 2, 1 and 1, when their first copy came by a path that had not
    covered them."""
    bnet = BrokerNetwork.clustered(net, [4] * 4, mesh=FAST_MESH)
    sim.run_for(5.0)
    gateways = gateways_of(bnet)
    receptions, reached = spy_lsas(bnet, member=False)
    bnet.disconnect("broker-c0-0", "broker-c1-0")
    sim.run_for(3.0)
    assert {origin for origin, _ in receptions} == {"broker-c0-0", "broker-c1-0"}
    for (origin, epoch), count in receptions.items():
        assert count <= 2 * len(gateways), (origin, epoch, count)
        assert reached[(origin, epoch)] == gateways - {origin}, (origin, epoch)
