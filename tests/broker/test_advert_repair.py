"""Repair of subscription state that a duplicate-free flood can lose.

Each advert reaches a broker about once (``test_flood_budget.py``), so
nothing else carries it past a silently dead link or a reordering.
Per-origin versions, gap-triggered snapshots and digest exchange must
repair it.  Every test ends on the maintained-state oracle
(``conftest.assert_maintained_state``) on every live broker, and on
every broker holding exactly its peers' advertised interest.
"""

import random

import pytest

from repro.broker import FAST_MESH, BrokerNetwork
from repro.broker.links import SubAdvert, SubDigest, SubSnapshot

from .conftest import assert_interest_converged, assert_maintained_state, make_client


def full_mesh(net, sim, size=4):
    bnet = BrokerNetwork.hierarchical(net, [size], mesh=FAST_MESH)
    sim.run_for(3.0)
    return bnet, bnet.broker_ids()


def test_silent_cut_during_churn_is_repaired(net, sim):
    """A and X stop hearing each other silently.  Inside the detection
    window one client at A subscribes and another unsubscribes; both
    adverts list X as covered, so nobody forwards them to X.  Once the
    mesh evicts the dead link, the digest exchange hands X a snapshot."""
    bnet, (a, b, _c, x) = full_mesh(net, sim)
    keeper = make_client(net, sim, bnet.broker(a), "keeper")
    keeper.subscribe("/repair/old", lambda event: None)
    sim.run_for(1.0)
    assert bnet.broker(x)._remote_interest.patterns_for(a) == ["/repair/old"]

    fresh = make_client(net, sim, bnet.broker(a), "fresh")
    bnet.cut_link(a, x)
    got = []
    fresh.subscribe("/repair/new", got.append)
    keeper.unsubscribe("/repair/old")
    sim.run_for(0.2)  # still inside the detection window
    assert bnet.broker(x).has_peer(a)
    assert bnet.broker(x)._remote_interest.patterns_for(a) == ["/repair/old"]

    sim.run_for(3.0)
    holder = bnet.broker(x)
    assert not holder.has_peer(a)
    assert holder._remote_interest.patterns_for(a) == ["/repair/new"]
    assert holder.snapshots_installed >= 1
    publisher = make_client(net, sim, holder, "publisher")
    publisher.publish("/repair/new", "routed", 100)
    sim.run_for(1.0)
    assert [event.payload for event in got] == ["routed"]
    assert_maintained_state(bnet.brokers())
    assert_interest_converged(bnet)


def test_eviction_itself_repairs_what_the_dead_link_ate(net, sim):
    """The digests a link-down sends repair X at once, without waiting
    for the next anti-entropy tick."""
    bnet, (a, _b, _c, x) = full_mesh(net, sim)
    client = make_client(net, sim, bnet.broker(a), "client")
    sim.run_for(0.1)  # the eviction below then lands between digest ticks
    bnet.cut_link(a, x)
    client.subscribe("/repair/evicted", lambda event: None)
    holder = bnet.broker(x)
    while holder.has_peer(a):
        sim.run_for(0.01)
    evicted_at = sim.now
    sim.run_for(0.05)
    assert holder._remote_interest.patterns_for(a) == ["/repair/evicted"]
    assert 0.2 < evicted_at % 1.0 < 0.9  # no periodic digest did this
    assert_maintained_state(bnet.brokers())
    assert_interest_converged(bnet)


def test_a_lost_last_advert_is_repaired_by_the_digest_tick(net, sim):
    """No later advert shows a gap and no link goes down: only the
    periodic digest (the versions in the link-state digest) repairs."""
    bnet, (a, _b, _c, x) = full_mesh(net, sim)
    holder = bnet.broker(x)
    deliver = holder.adverts.on_advert
    lost = []

    def lose_one_from_a(advert, from_peer):
        if advert.origin_broker == a and not lost:
            lost.append(advert)
        else:
            deliver(advert, from_peer)

    holder.adverts.on_advert = lose_one_from_a
    make_client(net, sim, bnet.broker(a), "client").subscribe(
        "/repair/lost", lambda event: None
    )
    sim.run_for(0.01)
    assert lost and holder._remote_interest.patterns_for(a) == []
    sim.run_for(1.5)
    assert holder._remote_interest.patterns_for(a) == ["/repair/lost"]
    # Converged, the ticks' digests draw no snapshot at all.
    snapshots = []
    for broker in bnet.brokers():
        broker.adverts.on_snapshot = lambda snapshot, from_peer: snapshots.append(
            snapshot
        )
    sim.run_for(2.0)
    assert snapshots == []
    assert_maintained_state(bnet.brokers())
    assert_interest_converged(bnet)


def test_a_dead_origin_is_forgotten_then_relearned(net, sim):
    """Once a crashed broker is unreachable, survivors drop its interest
    and its version (it can never withdraw them itself); restarted
    after that, it starts again at version 1 and is learned afresh."""
    bnet, (a, _b, _c, _x) = full_mesh(net, sim)
    make_client(net, sim, bnet.broker(a), "old").subscribe(
        "/life/old", lambda event: None
    )
    sim.run_for(1.0)
    bnet.crash_broker(a)
    sim.run_for(3.0)
    for survivor in bnet.brokers():
        assert survivor._remote_interest.patterns_for(a) == []
        assert a not in survivor.adverts.versions()
    restarted = bnet.restart_broker(a)
    sim.run_for(1.0)
    make_client(net, sim, restarted, "new").subscribe(
        "/life/new", lambda event: None
    )
    sim.run_for(1.0)
    for survivor in bnet.brokers():
        if survivor is not restarted:
            assert survivor._remote_interest.patterns_for(a) == ["/life/new"]
            assert survivor.adverts.versions()[a] == 1
    assert_maintained_state(bnet.brokers())
    assert_interest_converged(bnet)


def test_restarted_origin_jumps_past_its_echo(net, sim):
    """A broker restarts before its peers evict it, so they still hold
    its past life's patterns at version 2.  Its fresh adverts would be
    stale there; the first peer digest shows it its own past version,
    it jumps past it, and its new interest replaces the old."""
    bnet, (a, b, _c, _x) = full_mesh(net, sim)
    old = make_client(net, sim, bnet.broker(a), "old")
    old.subscribe("/life/one", lambda event: None)
    old.subscribe("/life/two", lambda event: None)
    sim.run_for(1.0)
    assert bnet.broker(b).adverts.versions()[a] == 2

    bnet.crash_broker(a)
    sim.run_for(0.1)  # peers have not noticed yet
    restarted = bnet.restart_broker(a)
    sim.run_for(1.0)
    assert restarted.adverts.table.epoch > 2
    got = []
    new = make_client(net, sim, restarted, "new")
    new.subscribe("/life/three", got.append)
    sim.run_for(1.0)
    for broker in bnet.brokers():
        if broker is not restarted:
            assert broker._remote_interest.patterns_for(a) == ["/life/three"]
    publisher = make_client(net, sim, bnet.broker(b), "publisher")
    publisher.publish("/life/three", "after", 100)
    publisher.publish("/life/one", "stale", 100)
    sim.run_for(1.0)
    assert [event.payload for event in got] == ["after"]
    assert bnet.broker(b).events_forwarded == 1
    assert_maintained_state(bnet.brokers())
    assert_interest_converged(bnet)


def test_reordered_add_and_remove_leave_no_stale_entry(net, sim):
    """An add and a remove of one pattern reach X in reverse order: the
    remove (version 2) first, then the add (version 1), which is stale
    by then.  X holds nothing for the pattern, and the gap the remove
    showed is repaired by a snapshot."""
    bnet, (a, _b, _c, x) = full_mesh(net, sim)
    holder = bnet.broker(x)
    held = []
    deliver = holder.adverts.on_advert

    def hold_from_a(advert, from_peer):
        if advert.origin_broker == a:
            held.append((advert, from_peer))
        else:
            deliver(advert, from_peer)

    holder.adverts.on_advert = hold_from_a
    client = make_client(net, sim, bnet.broker(a), "flipper")
    sim.run_for(0.5)  # between two anti-entropy rounds
    client.subscribe("/flip", lambda event: None)
    client.unsubscribe("/flip")
    sim.run_for(0.1)
    assert [(advert.seq, advert.add) for advert, _ in held] == [(1, True), (2, False)]
    holder.adverts.on_advert = deliver
    for advert, from_peer in reversed(held):
        deliver(advert, from_peer)
    assert holder.adverts.gaps == {a: 0}
    sim.run_for(0.2)  # repaired by the gap's request, before any digest tick
    assert holder._remote_interest.patterns_for(a) == []
    assert holder.adverts.versions()[a] == 2
    assert holder.snapshots_installed == 1
    assert_maintained_state(bnet.brokers())
    assert_interest_converged(bnet)


def test_a_gapped_origin_is_never_served(net, sim):
    """What a broker holds for an origin past a gap is not that origin's
    interest at any version, so it must not hand it out: a peer behind
    on the origin gets no snapshot of it from there (only of the origins
    it holds exactly)."""
    bnet, (a, b, c, x) = full_mesh(net, sim)
    holder = bnet.broker(x)
    make_client(net, sim, bnet.broker(c), "served").subscribe(
        "/served", lambda event: None
    )
    sim.run_for(0.5)  # between two anti-entropy rounds
    holder.adverts.on_advert(
        SubAdvert(
            origin_broker=a, seq=3, pattern="/gapped", add=True,
            covered=frozenset(bnet.broker_ids()),
        ),
        from_peer=None,  # nobody to ask
    )
    assert holder.adverts.gaps == {a: 0}
    assert holder.adverts.versions()[a] == 0
    sent = []
    send = holder._send_peer
    holder._send_peer = lambda peer, message: (sent.append(message), send(peer, message))
    holder.adverts.on_digest(SubDigest(origin_broker=b), from_peer=b)
    sim.run_for(0.01)
    snapshots = [message for message in sent if isinstance(message, SubSnapshot)]
    assert [
        [origin for origin, _seq, _patterns in snapshot.entries]
        for snapshot in snapshots
    ] == [[c]]


BUILDERS = {
    "hierarchical": lambda net: BrokerNetwork.hierarchical(
        net, [3, 3, 3], mesh=FAST_MESH
    ),
    "clustered": lambda net: BrokerNetwork.clustered(net, [3, 3], mesh=FAST_MESH),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_seeded_churn_and_silent_cuts_converge(net, sim, builder, seed):
    """Subscription churn at random brokers while random links die and
    come back silently, then every cut heals: the fabric converges to
    every broker holding exactly its peers' interest."""
    rng = random.Random(seed)
    bnet = BUILDERS[builder](net)
    sim.run_for(8.0)
    names = bnet.broker_ids()
    clients = [
        make_client(net, sim, bnet.broker(name), f"churn-{index}")
        for index, name in enumerate(names)
    ]
    held = [set() for _ in clients]
    edges = sorted(
        (a, b) for a in names for b in names if a < b and bnet.broker(a).has_peer(b)
    )
    for _step in range(40):
        roll = rng.random()
        if roll < 0.15:
            bnet.cut_link(*rng.choice(edges))
        elif roll < 0.25:
            bnet.heal()
        else:
            index = rng.randrange(len(clients))
            pattern = f"/churn/{rng.randrange(6)}"
            if pattern in held[index]:
                clients[index].unsubscribe(pattern)
                held[index].discard(pattern)
            else:
                clients[index].subscribe(pattern, lambda event: None)
                held[index].add(pattern)
        sim.run_for(rng.uniform(0.05, 0.6))
    bnet.heal()
    sim.run_for(10.0)
    assert_maintained_state(bnet.brokers())
    assert_interest_converged(bnet)
