"""Peer heartbeats + distributed link-state routing (autonomous mesh).

These are mesh-protocol unit tests: no clients, just brokers detecting
peer death via heartbeat silence, flooding LinkStateAdverts, computing
next-hop tables locally, and reconciling databases via digests.
"""

import pytest

from repro.broker import BrokerNetwork
from repro.broker.links import LinkStateAdvert, LinkStateDigest, PeerHeartbeat, message_size

FAST = dict(autonomous=True, peer_heartbeat_interval_s=0.25, peer_miss_limit=2)


def ring(net, count=5, **overrides):
    options = dict(FAST)
    options.update(overrides)
    return BrokerNetwork.ring(net, count, **options)


def routes_of(bnet):
    return {b.broker_id: dict(b._routes) for b in bnet.brokers()}


def assert_full_mesh_routes(bnet):
    ids = set(bnet.broker_ids())
    for broker in bnet.brokers():
        expected = ids - {broker.broker_id}
        assert set(broker._routes) == expected, (
            f"{broker.broker_id} routes {sorted(broker._routes)} != "
            f"{sorted(expected)}"
        )


class TestConvergence:
    def test_ring_converges_to_central_routes(self, sim, net):
        """The distributed protocol lands on the same next hops the old
        central all-pairs-shortest-path computation produced."""
        bnet = ring(net)
        sim.run_for(2.0)
        distributed = routes_of(bnet)
        assert_full_mesh_routes(bnet)
        # Recompute centrally over the same graph and compare.
        central_routes = {}
        import networkx as nx
        graph = nx.from_dict_of_lists(bnet.graph)
        paths = dict(nx.all_pairs_shortest_path(graph))
        for broker_id in bnet.broker_ids():
            routes = {}
            for destination, path in paths[broker_id].items():
                if destination != broker_id and len(path) >= 2:
                    routes[destination] = path[1]
            central_routes[broker_id] = routes
        # Same reachability; equal-cost ties may differ only between
        # equally short first hops.
        for broker_id, routes in distributed.items():
            assert set(routes) == set(central_routes[broker_id])
            for destination, hop in routes.items():
                central_hop = central_routes[broker_id][destination]
                if hop != central_hop:
                    d = nx.shortest_path_length(graph, broker_id, destination)
                    via = 1 + nx.shortest_path_length(graph, hop, destination)
                    assert via == d, "distributed route is not shortest"

    def test_lsa_counters_on_statistics(self, sim, net):
        bnet = ring(net)
        sim.run_for(2.0)
        for broker in bnet.brokers():
            stats = broker.statistics()
            assert stats["lsas_originated"] >= 1
            assert stats["lsas_received"] >= 1
            assert stats["routing_epochs"] >= 1
            assert broker.last_route_change_at >= 0.0

    def test_convergence_is_deterministic(self):
        from repro.simnet import Network, SeededStreams, Simulator

        def run():
            sim = Simulator()
            net = Network(sim, SeededStreams(11))
            bnet = ring(net)
            sim.run_for(2.0)
            return routes_of(bnet)

        assert run() == run()


class TestFailureDetection:
    def test_silent_peer_is_evicted_by_heartbeat_misses(self, sim, net):
        bnet = ring(net, count=3)
        sim.run_for(2.0)
        # Kill broker-2 without telling anyone.
        bnet.crash_broker("broker-2")
        sim.run_for(3.0)
        b0, b1 = bnet.broker("broker-0"), bnet.broker("broker-1")
        for survivor in (b0, b1):
            assert not survivor.has_peer("broker-2")
            assert survivor.peers_evicted == 1
            assert set(survivor._routes) == {
                ("broker-1" if survivor is b0 else "broker-0")
            }

    def test_any_peer_traffic_refreshes_liveness(self, sim, net):
        """Heartbeats are not the only liveness signal: any incoming
        peer message (adverts, events) refreshes last-heard."""
        bnet = ring(net, count=3)
        sim.run_for(1.0)
        b0 = bnet.broker("broker-0")
        before = dict(b0.mesh.last_heard)
        sim.run_for(1.0)
        after = dict(b0.mesh.last_heard)
        for peer in before:
            assert after[peer] > before[peer]

    def test_peer_heartbeats_counted(self, sim, net):
        bnet = ring(net, count=3)
        sim.run_for(2.0)
        for broker in bnet.brokers():
            assert broker.peer_heartbeats_received > 0

    def test_no_heartbeats_without_interval(self, sim, net):
        """Central mode (no interval) never starts the peer-beat plane."""
        bnet = BrokerNetwork.ring(net, 3)
        sim.run_for(2.0)
        for broker in bnet.brokers():
            assert broker.peer_heartbeats_received == 0
            assert broker.mesh is None


class TestLinkStateProtocol:
    def test_stale_epoch_rejected(self, sim, net):
        bnet = ring(net, count=3)
        sim.run_for(2.0)
        b0 = bnet.broker("broker-0")
        current_epoch = b0.mesh.member.table["broker-1"][0]
        stale = LinkStateAdvert(
            origin_broker="broker-1", epoch=0, neighbors=frozenset()
        )
        b0.mesh.on_advert(stale, from_peer="broker-1")
        assert b0.mesh.member.table["broker-1"][0] == current_epoch

    def test_own_echo_triggers_epoch_jump(self, sim, net):
        """A broker that hears its own adjacency at a future epoch (a
        pre-restart ghost) jumps past it and re-originates."""
        bnet = ring(net, count=3)
        sim.run_for(2.0)
        b0 = bnet.broker("broker-0")
        old = b0.mesh.member.table.epoch
        ghost = LinkStateAdvert(
            origin_broker="broker-0", epoch=old + 10, neighbors=frozenset()
        )
        b0.mesh.on_advert(ghost, from_peer="broker-1")
        assert b0.mesh.member.table.epoch == old + 11

    def test_digest_pushes_missing_lsas(self, sim, net):
        bnet = ring(net, count=3)
        sim.run_for(2.0)
        b0 = bnet.broker("broker-0")
        # A peer claiming an empty database gets everything we hold.
        sent_before = b0.host.nic.sent_packets
        b0.mesh.on_digest(
            LinkStateDigest(origin_broker="broker-1", epochs={}),
            from_peer="broker-1",
        )
        sim.run_for(0.5)
        assert b0.host.nic.sent_packets > sent_before

    def test_unreachable_origin_purged_from_lsdb(self, sim, net):
        bnet = ring(net, count=3)
        sim.run_for(2.0)
        bnet.crash_broker("broker-2")
        sim.run_for(3.0)
        for survivor in bnet.brokers():
            assert "broker-2" not in survivor.mesh.member.table

    def test_wire_sizes_scale_with_content(self):
        lsa_small = LinkStateAdvert(origin_broker="a", epoch=1, neighbors=frozenset())
        lsa_big = LinkStateAdvert(
            origin_broker="a", epoch=1, neighbors=frozenset({"b", "c", "d"})
        )
        assert message_size(lsa_big, 48) > message_size(lsa_small, 48)
        digest_small = LinkStateDigest(origin_broker="a", epochs={})
        digest_big = LinkStateDigest(origin_broker="a", epochs={"b": 1, "c": 2})
        assert message_size(digest_big, 48) > message_size(digest_small, 48)
        beat = PeerHeartbeat(origin_broker="a")
        assert message_size(beat, 48) > 0


class TestTopologyOps:
    def test_connect_in_autonomous_mode_needs_no_central_push(self, sim, net):
        bnet = BrokerNetwork(net, **FAST)
        for name in ("a", "b", "c"):
            bnet.add_broker(name)
        bnet.connect("a", "b")
        bnet.connect("b", "c")
        sim.run_for(2.0)
        assert bnet.broker("a")._routes == {"b": "b", "c": "b"}
        assert bnet.broker("c")._routes == {"b": "b", "a": "b"}

    def test_cut_link_is_detected_and_routed_around(self, sim, net):
        bnet = ring(net, count=4)
        sim.run_for(2.0)
        assert bnet.broker("broker-0")._routes["broker-1"] == "broker-1"
        bnet.cut_link("broker-0", "broker-1")
        sim.run_for(3.0)
        b0 = bnet.broker("broker-0")
        assert b0.peers_evicted == 1
        # Still reachable, the long way round.
        assert b0._routes["broker-1"] == "broker-3"

    def test_restore_link_heals_routes(self, sim, net):
        bnet = ring(net, count=4)
        sim.run_for(2.0)
        bnet.cut_link("broker-0", "broker-1")
        sim.run_for(3.0)
        bnet.restore_link("broker-0", "broker-1")
        sim.run_for(3.0)
        assert bnet.broker("broker-0")._routes["broker-1"] == "broker-1"
        assert bnet.broker("broker-1")._routes["broker-0"] == "broker-0"
        assert_full_mesh_routes(bnet)

    def test_restart_broker_rejoins_with_fresh_epoch(self, sim, net):
        bnet = ring(net)
        sim.run_for(2.0)
        bnet.crash_broker("broker-2")
        sim.run_for(3.0)
        restarted = bnet.restart_broker("broker-2")
        sim.run_for(3.0)
        assert_full_mesh_routes(bnet)
        assert restarted.mesh.member.table.epoch >= 1

    def test_quick_restart_beats_ghost_lsa(self, sim, net):
        """Restart *before* eviction: survivors still hold the past
        incarnation's LSA at a higher epoch; the own-echo jump must win."""
        bnet = ring(net)
        sim.run_for(2.0)
        bnet.crash_broker("broker-2")
        sim.run_for(0.1)
        bnet.restart_broker("broker-2")
        sim.run_for(3.0)
        assert_full_mesh_routes(bnet)
