"""Routing fast path: RouteCache behaviour and broker wiring.

Covers the cache's generation-based invalidation on every control-plane
mutation (subscribe, unsubscribe, disconnect, remote advert, route-table
change), the cached sequencer election, and the statistics counters the
cache exposes.
"""

import pytest

from repro.broker import (
    FAST_MESH, BrokerClient, BrokerNetwork, RouteCache, RouteEntry,
)
from repro.broker.profile import NARADA_PROFILE
from repro.broker.route_cache import SendCosts

from tests.broker.conftest import make_client


class TestRouteCacheUnit:
    def entry(self, generation):
        return RouteEntry(generation, ("c1", "c2"), frozenset(), ())

    def test_miss_then_hit(self):
        cache = RouteCache()
        assert cache.lookup("/t", (0, 0, 0)) is None
        cache.store("/t", self.entry((0, 0, 0)))
        assert cache.lookup("/t", (0, 0, 0)) is not None
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.invalidations == 0

    def test_stale_generation_invalidates(self):
        cache = RouteCache()
        cache.store("/t", self.entry((0, 0, 0)))
        assert cache.lookup("/t", (1, 0, 0)) is None
        assert cache.invalidations == 1
        assert cache.misses == 1
        assert len(cache) == 0  # stale entry dropped

    def test_capacity_evicts_oldest(self):
        cache = RouteCache(max_entries=3)
        for i in range(5):
            cache.store(f"/t{i}", self.entry((0, 0, 0)))
        assert len(cache) == 3
        assert cache.lookup("/t0", (0, 0, 0)) is None  # evicted
        assert cache.lookup("/t4", (0, 0, 0)) is not None

    def test_group_cache_checks_route_generation(self):
        cache = RouteCache()
        targets = frozenset({"b1", "b2"})
        groups = (("peer", targets),)
        cache.store_groups(targets, 7, groups)
        assert cache.lookup_groups(targets, 7) == groups
        assert cache.lookup_groups(targets, 8) is None
        assert cache.invalidations == 1

    def test_send_cost_memo_matches_profile(self):
        costs = SendCosts(NARADA_PROFILE)  # a broker's one memo
        for size in (100, 800, 100):
            assert costs[size] == NARADA_PROFILE.send_cost_s(size)
        assert sorted(costs) == [100, 800]

    def test_clear_and_stats(self):
        cache = RouteCache()
        cache.store("/t", self.entry((0, 0, 0)))
        cache.lookup("/t", (0, 0, 0))
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 1


class TestBrokerWiring:
    def publish_and_run(self, sim, client, topic="/t"):
        client.publish(topic, b"x", 100)
        sim.run_for(1.0)

    def test_repeat_publish_hits_cache(self, net, sim, single_broker):
        publisher = make_client(net, sim, single_broker, "pub")
        subscriber = make_client(net, sim, single_broker, "sub")
        subscriber.subscribe("/t", lambda e: None)
        sim.run_for(1.0)
        for _ in range(5):
            self.publish_and_run(sim, publisher)
        stats = single_broker.statistics()
        assert stats["route_cache_misses"] == 1
        assert stats["route_cache_hits"] == 4
        assert stats["route_cache_invalidations"] == 0
        assert single_broker.events_delivered == 5

    def test_subscribe_invalidates(self, net, sim, single_broker):
        publisher = make_client(net, sim, single_broker, "pub")
        first = make_client(net, sim, single_broker, "s1")
        first.subscribe("/t", lambda e: None)
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        second = make_client(net, sim, single_broker, "s2")
        got = []
        second.subscribe("/t", got.append)
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        assert len(got) == 1  # the new subscriber was picked up
        assert single_broker.route_cache.invalidations >= 1

    def test_unsubscribe_invalidates(self, net, sim, single_broker):
        publisher = make_client(net, sim, single_broker, "pub")
        subscriber = make_client(net, sim, single_broker, "sub")
        got = []
        subscriber.subscribe("/t", got.append)
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        subscriber.unsubscribe("/t")
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        assert len(got) == 1
        assert single_broker.route_cache.invalidations >= 1

    def test_disconnect_invalidates(self, net, sim, single_broker):
        publisher = make_client(net, sim, single_broker, "pub")
        subscriber = make_client(net, sim, single_broker, "sub")
        subscriber.subscribe("/t", lambda e: None)
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        delivered = single_broker.events_delivered
        subscriber.disconnect()
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        assert single_broker.events_delivered == delivered
        assert single_broker.route_cache.invalidations >= 1

    def test_remote_advert_invalidates(self, net, sim):
        bnet = BrokerNetwork.chain(net, 2)
        b0 = bnet.broker("broker-0")
        publisher = make_client(net, sim, b0, "pub")
        local = make_client(net, sim, b0, "local")
        local.subscribe("/t", lambda e: None)
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        assert b0.events_forwarded == 0
        # A subscription at the far broker floods an advert to b0, whose
        # cached entry must go stale so the next publish forwards.
        remote = make_client(net, sim, bnet.broker("broker-1"), "remote")
        got = []
        remote.subscribe("/t", got.append)
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        assert len(got) == 1
        assert b0.events_forwarded == 1
        assert b0.route_cache.invalidations >= 1

    def test_route_change_invalidates(self, net, sim):
        bnet = BrokerNetwork.chain(net, 2)
        b0 = bnet.broker("broker-0")
        publisher = make_client(net, sim, b0, "pub")
        remote = make_client(net, sim, bnet.broker("broker-1"), "remote")
        remote.subscribe("/t", lambda e: None)
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        generation = b0.routing_generation()
        b0.set_routes({"broker-1": "broker-1"})  # same table, new gen
        assert b0.routing_generation() != generation
        self.publish_and_run(sim, publisher)
        assert b0.route_cache.invalidations >= 1
        assert b0.events_forwarded == 2

    def test_cached_entry_equals_fresh_recompute(self, net, sim):
        """The cache-miss body of ``resolve_route`` is the reference
        resolve: whatever the cache serves must equal what that body
        computes once the cache is emptied — on a member, and on an
        active gateway where the intra/inter tier split is populated."""
        bnet = BrokerNetwork.clustered(net, [3, 3], mesh=FAST_MESH)
        sim.run_for(5.0)
        gateway = bnet.broker("broker-c0-0")
        member = bnet.broker("broker-c0-2")
        subscriptions = (
            ("broker-c0-0", "/conf/a/video"),
            ("broker-c0-0", "/conf/b/#"),
            ("broker-c0-1", "/conf/a/#"),
            ("broker-c0-2", "/conf/a/video"),
            ("broker-c1-1", "/conf/a/#"),
            ("broker-c1-2", "/conf/b/audio"),
        )
        for index, (broker_name, pattern) in enumerate(subscriptions):
            client = make_client(net, sim, bnet.broker(broker_name), f"s{index}")
            client.subscribe(pattern, lambda e: None)
        sim.run_for(5.0)
        assert gateway.is_active_gateway

        fields = (
            "generation", "local_targets", "remote_targets",
            "next_hop_groups", "intra_targets", "inter_targets",
        )
        topics = ("/conf/a/video", "/conf/a/audio", "/conf/b/audio", "/none")
        for broker in (gateway, member):
            for topic in topics:
                broker.resolve_route(topic)
                hits = broker.route_cache.hits
                cached = broker.resolve_route(topic)
                assert broker.route_cache.hits == hits + 1
                broker.route_cache.clear()
                fresh = broker.resolve_route(topic)
                assert fresh is not cached
                for field in fields:
                    assert getattr(cached, field) == getattr(fresh, field), (
                        broker.broker_id, topic, field,
                    )
        entry = gateway.resolve_route("/conf/a/video")
        assert entry.local_targets == ("s0",)
        assert entry.intra_targets == {"broker-c0-1", "broker-c0-2"}
        assert entry.inter_targets == {"broker-c1-0"}
        assert {hop for hop, _group in entry.next_hop_groups} == set(
            entry.remote_targets
        )
        assert member.resolve_route("/conf/a/video").intra_targets is None

    def test_statistics_block_and_monitor_sample(self, net, sim, single_broker):
        publisher = make_client(net, sim, single_broker, "pub")
        subscriber = make_client(net, sim, single_broker, "sub")
        subscriber.subscribe("/t", lambda e: None)
        sim.run_for(1.0)
        self.publish_and_run(sim, publisher)
        self.publish_and_run(sim, publisher)
        stats = single_broker.statistics()
        assert stats["route_cache_hits"] == single_broker.route_cache.hits
        assert stats["route_cache_misses"] == 1
        assert stats["events_routed"] == 2
        assert stats["route_cache_entries"] == 1


class TestSequencerCache:
    def test_election_cached_until_topology_change(self, net, sim):
        bnet = BrokerNetwork.chain(net, 3)
        b0 = bnet.broker("broker-0")
        first = b0.ordering.sequencer_for("/ordered/t")
        assert b0.ordering.sequencer_for("/ordered/t") == first
        assert "/ordered/t" in b0.ordering.elections
        b0.set_routes(dict(b0._routes))
        # Generation bumped: the cache is rebuilt lazily, same result.
        assert "/ordered/t" not in b0.ordering.elections or (
            b0.ordering.elections_gen != b0._routes_gen
        )
        assert b0.ordering.sequencer_for("/ordered/t") == first

    def test_all_brokers_agree(self, net, sim):
        bnet = BrokerNetwork.star(net, leaves=3)
        elections = {
            b.broker_id: b.ordering.sequencer_for("/ordered/t")
            for b in bnet.brokers()
        }
        assert len(set(elections.values())) == 1

    def test_ordered_publish_sequences_monotonically(self, net, sim):
        bnet = BrokerNetwork.chain(net, 2)
        publisher = make_client(net, sim, bnet.broker("broker-0"), "pub")
        subscriber = make_client(net, sim, bnet.broker("broker-1"), "sub")
        got = []
        subscriber.subscribe("/ordered/t", got.append)
        sim.run_for(1.0)
        for i in range(4):
            publisher.publish("/ordered/t", i, 50, ordered=True)
            sim.run_for(0.5)
        assert [e.payload for e in got] == [0, 1, 2, 3]
        assert [e.sequence for e in got] == [0, 1, 2, 3]


