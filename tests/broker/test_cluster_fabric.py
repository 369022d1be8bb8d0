"""Cluster tier: scoped flooding, aggregated interest, gateway failover.

Exercises the hierarchical broker fabric end to end: member floods stay
inside their cluster, gateways exchange aggregated interest summaries
and cluster-level LSAs, events route leaf → gateway → remote gateway →
leaf, and the fabric survives gateway death (both the clustered control
plane and the flat :meth:`BrokerNetwork.hierarchical` redundant-uplink
topology).  Also pins that a late copy of any flooded message dies at
the first broker it reaches.
"""

import pytest

from repro.broker import FAST_MESH, BrokerNetwork
from repro.broker.links import (
    ClusterInterestAdvert,
    LinkStateAdvert,
    SequencerPin,
    SubAdvert,
)

from .conftest import assert_maintained_state, make_client

class TestFloodEchoSuppression:
    def test_evicted_echo_is_absorbed_not_reflooded(self, sim, net):
        """A copy of a flooded message that arrives after its version was
        applied (a slower second path, or an echo) must die at the first
        broker without touching anything.  Re-flooding a no-op is what
        turns late copies into a self-sustaining storm.  One burst of
        late copies per flooded kind: a subscription advert, a member
        and a gateway LSA, a cluster summary and a sequencer pin."""
        bnet = BrokerNetwork.clustered(
            net, [3, 3], regions=["us", "eu"], mesh=FAST_MESH
        )
        sim.run_for(5.0)
        member = bnet.broker("broker-c0-2")
        gateway = bnet.broker("broker-c0-0")
        remote = bnet.broker("broker-c1-0")
        client = make_client(net, sim, member, "echo-sub")
        client.subscribe("/gmc/echo/room", lambda event: None)
        member.geo.on_pin(
            SequencerPin(
                "/gmc/echo/ordered", "broker-c0-1", 1, 0, "broker-c0-2",
                frozenset({"broker-c0-2"}),
            )
        )
        sim.run_for(2.0)
        assert gateway._remote_interest.has_pattern("/gmc/echo/room")
        assert gateway.geo.pinned_sequencer("/gmc/echo/ordered") == "broker-c0-1"

        def lsa(holder, tier, origin):
            epoch, neighbors, costs, cluster_id = tier.table[origin]
            return LinkStateAdvert(
                origin, epoch, neighbors, costs, cluster_id,
                frozenset({origin, holder.broker_id}),
            )

        def summary(holder, origin):
            epoch, patterns, cluster_id = holder.gateway.interest[origin]
            return ClusterInterestAdvert(
                origin, epoch, patterns, cluster_id,
                frozenset({origin, holder.broker_id}),
            )

        late = [
            (
                gateway.adverts.on_advert,
                SubAdvert(
                    origin_broker="broker-c0-2", seq=1, pattern="/gmc/echo/room",
                    add=True, covered=frozenset({"broker-c0-2", "broker-c0-0"}),
                ),
                ("broker-c0-2",),
            ),
            (
                gateway.mesh.on_advert,
                lsa(gateway, gateway.mesh.member, "broker-c0-2"),
                (),
            ),
            (
                remote.mesh.on_advert,
                lsa(remote, remote.gateway.overlay, "broker-c0-0"),
                (),
            ),
            (remote.gateway.on_interest, summary(remote, "broker-c0-0"), ()),
            (gateway.geo.on_pin, member.geo.pins["/gmc/echo/ordered"][1], ()),
        ]
        brokers = bnet.brokers()
        flooded = []
        for broker in brokers:
            send = broker._send_peer

            def spy(peer_id, message, send=send):
                if hasattr(message, "covered"):
                    flooded.append(message)
                send(peer_id, message)

            broker._send_peer = spy

        def state():
            return {
                broker.broker_id: (
                    broker.control_messages,
                    broker.lsas_originated,
                    broker.adverts.versions(),
                    broker.mesh.member.table.epochs(),
                    broker.geo.pins.epochs(),
                    broker.gateway and broker.gateway.digest(),
                )
                for broker in brokers
            }

        before = state()
        for handler, message, args in late:
            for _ in range(50):  # a burst of late copies
                handler(message, *args)
            # Dropped by version: nobody counted, applied or re-flooded it.
            assert state() == before, type(message).__name__
        sim.run_for(2.0)
        assert flooded == []

    def test_own_origin_echo_is_absorbed(self, sim, net):
        """A broker's own advert coming back is never re-flooded.  One
        older than its current version is dropped outright.  A flood is
        never sent to its origin, so one at its current version can only
        be a past life's: the origin takes a newer version and its
        neighbours re-learn its interest by digest — a bounded exchange
        that ends quiet."""
        bnet = BrokerNetwork.chain(net, 3)
        sim.run_for(5.0)
        client = make_client(net, sim, bnet.broker("broker-1"), "self-sub")
        client.subscribe("/gmc/echo/self", lambda event: None)
        client.subscribe("/gmc/echo/other", lambda event: None)
        sim.run_for(2.0)
        brokers = [bnet.broker(name) for name in sorted(bnet.broker_ids())]
        middle = brokers[1]
        assert middle.adverts.table.epoch == 2

        def counters():
            return {b.broker_id: b.control_messages for b in brokers}

        def echo(seq):
            middle.adverts.on_advert(
                SubAdvert(
                    origin_broker="broker-1", seq=seq, pattern="/gmc/echo/self",
                    add=True, covered=frozenset(bnet.broker_ids()),
                ),
                from_peer="broker-0",
            )
            sim.run_for(2.0)

        before = counters()
        echo(1)
        assert counters() == before
        echo(2)
        assert middle.adverts.table.epoch == 3
        for broker in (brokers[0], brokers[2]):
            assert broker.adverts.versions()["broker-1"] == 3
            assert sorted(broker._remote_interest.patterns_for("broker-1")) == [
                "/gmc/echo/other", "/gmc/echo/self",
            ]
        settled = counters()
        sim.run_for(2.0)
        assert counters() == settled


class TestSummaryHysteresis:
    def test_boundary_cluster_does_not_flap(self, sim, net, monkeypatch):
        """A cluster whose interest hovers *at* the summary budget must
        not flap between the exact pattern list and the collapsed
        wildcard on every churn transient — each flap would make every
        remote cluster install/withdraw the full diff as per-pattern
        proxy floods.  Once collapsed, the summary stays collapsed until
        interest genuinely narrows."""
        import repro.broker.gateway as gateway_mod

        monkeypatch.setattr(gateway_mod, "INTEREST_SUMMARY_BUDGET", 4)
        bnet = BrokerNetwork.clustered(net, [3, 3], mesh=FAST_MESH)
        sim.run_for(20.0)
        client = make_client(net, sim, bnet.broker("broker-c0-2"), "edge")
        for n in range(4):
            client.subscribe(f"/edge/a/t{n}", lambda event: None)
        sim.run_for(5.0)
        gateway = bnet.broker("broker-c0-0").gateway
        assert gateway.active == gateway.broker.broker_id
        epoch_before = gateway.interest.epoch
        # Toggle a fifth pattern across the boundary repeatedly: the
        # first crossing may collapse the summary (one flood), but the
        # collapsed form must then be sticky.
        for n in range(6):
            client.subscribe("/edge/a/extra", lambda event: None)
            sim.run_for(1.0)
            client.unsubscribe("/edge/a/extra")
            sim.run_for(1.0)
        assert gateway.summary_collapsed
        assert gateway.last_summary == ("/edge/a/#",)
        assert gateway.interest.epoch - epoch_before <= 2


class TestStrayUnsubscribe:
    def test_unheld_unsubscribe_changes_nothing(self, sim, net):
        """``BrokerClient.unsubscribe`` sends an Unsubscribe whether or
        not the pattern was ever subscribed.  The broker must absorb a
        no-op: it used to flood a ``SubAdvert(add=False)`` to every
        cluster member and schedule a summary refresh."""
        bnet = BrokerNetwork.clustered(net, [3, 3], mesh=FAST_MESH)
        sim.run_for(20.0)
        edge = bnet.broker("broker-c0-2")
        client = make_client(net, sim, edge, "stray")

        def control_messages():
            return {b.broker_id: b.control_messages for b in bnet.brokers()}

        # Digest anti-entropy keeps the counters ticking at a fixed
        # rate, so compare two windows of the same length.
        start = control_messages()
        sim.run_for(3.0)
        quiet = control_messages()
        client.unsubscribe("/never/held")
        sim.run_for(3.0)
        after = control_messages()
        for broker_id in start:
            heard = 1 if broker_id == edge.broker_id else 0  # the message itself
            assert (
                after[broker_id] - quiet[broker_id]
                == quiet[broker_id] - start[broker_id] + heard
            ), broker_id
        assert not bnet.broker("broker-c0-0").gateway.summary_pending
        assert_maintained_state(bnet.brokers())


class TestMaintainedInterest:
    """The gateway's incrementally tracked member interest equals the
    from-scratch ``_local_subs ∪ non-foreign _remote_interest`` through
    faults, on active and standby gateways alike."""

    def churn(self, net, sim, bnet, tag, count=40):
        """Subscribe ``count`` patterns (enough to collapse) across a
        member, the standby and whichever gateway is up; drop half."""
        clients = []
        for index, name in enumerate(("broker-c0-2", "broker-c0-1", "broker-c1-0")):
            client = make_client(net, sim, bnet.broker(name), f"{tag}-{index}")
            for n in range(count):
                client.subscribe(f"/{tag}/room-{n % 7}/m{n}", lambda event: None)
            client.subscribe("/shared/#", lambda event: None)
            clients.append(client)
        sim.run_for(3.0)
        for client in clients:
            for n in range(0, count, 2):
                client.unsubscribe(f"/{tag}/room-{n % 7}/m{n}")
            client.unsubscribe("/not/held")
        sim.run_for(3.0)
        return clients

    def test_crash_takeover_heal_demotion(self, sim, net):
        bnet = BrokerNetwork.clustered(net, [3, 3], mesh=FAST_MESH)
        sim.run_for(20.0)
        lost = make_client(net, sim, bnet.broker("broker-c0-0"), "lost")
        lost.subscribe("/lost/with/gateway", lambda event: None)
        before = self.churn(net, sim, bnet, "before")
        standby = bnet.broker("broker-c0-1")
        assert standby.gateway.active == "broker-c0-0"
        assert standby.gateway.member_interest.patterns() >= {"/lost/with/gateway"}
        assert_maintained_state(bnet.brokers())

        bnet.crash_broker("broker-c0-0")
        sim.run_for(15.0)
        assert standby.gateway.active == standby.broker_id
        assert standby.gateway.summary_collapsed  # read off the shadow set, no rebuild
        assert_maintained_state(bnet.brokers())
        during = self.churn(net, sim, bnet, "during")
        assert_maintained_state(bnet.brokers())

        healed = bnet.restart_broker("broker-c0-0")
        sim.run_for(15.0)
        assert standby.gateway.active == "broker-c0-0"  # demoted
        assert healed.is_active_gateway
        assert_maintained_state(bnet.brokers())
        for client in before + during:
            client.disconnect()
        sim.run_for(5.0)
        assert_maintained_state(bnet.brokers())
        assert healed.gateway.member_interest.patterns() == set()
        assert healed.gateway.last_summary == ()

    def test_geo_regional_cut_and_heal(self, sim, net):
        """Geo mode retains unreachable brokers' interest (no purge):
        the tracked set must retain exactly the same entries."""
        bnet = BrokerNetwork.clustered(net, [3, 3], regions=["us", "eu"], mesh=FAST_MESH)
        net.set_region_latency("us", "eu", 0.045)
        sim.run_for(20.0)
        self.churn(net, sim, bnet, "before")
        bnet.partition_regions("us", "eu")
        sim.run_for(10.0)
        self.churn(net, sim, bnet, "cut")
        assert_maintained_state(bnet.brokers())
        bnet.heal()
        sim.run_for(15.0)
        assert_maintained_state(bnet.brokers())


def converge(sim, seconds=20.0):
    sim.run_for(seconds)


def cluster_members(bnet, cluster_id):
    return set(bnet.spec.clusters[cluster_id])


class TestClusteredFabric:
    def test_cross_cluster_delivery_exactly_once(self, sim, net):
        bnet = BrokerNetwork.clustered(net, [4, 4, 4], mesh=FAST_MESH)
        converge(sim)
        received = []
        subscriber = make_client(net, sim, bnet.broker("broker-c0-3"), "sub")
        subscriber.subscribe("/gmc/video/room-1", received.append)
        publisher = make_client(net, sim, bnet.broker("broker-c2-3"), "pub")
        sim.run_for(10.0)  # summary propagation c0 → gateways → c2
        for n in range(5):
            publisher.publish("/gmc/video/room-1", {"n": n}, 400)
        sim.run_for(5.0)
        assert sorted(event.payload["n"] for event in received) == [0, 1, 2, 3, 4]
        assert len({event.event_id for event in received}) == 5

    def test_member_state_is_cluster_scoped(self, sim, net):
        bnet = BrokerNetwork.clustered(net, [4, 4, 4], mesh=FAST_MESH)
        converge(sim)
        own = cluster_members(bnet, "c0")
        member = bnet.broker("broker-c0-3")  # not a gateway
        assert not member.is_gateway
        assert set(member.mesh.member.table) <= own
        assert set(member._routes) <= own - {member.broker_id}
        # Gateways do know foreign *gateways* (the overlay tier) but
        # never foreign members.
        gateway = bnet.broker("broker-c0-0")
        assert gateway.is_gateway
        foreign_routes = set(gateway._routes) - own
        assert foreign_routes  # overlay reachability exists
        all_gateways = {
            name
            for cid in bnet.spec.clusters
            for name in bnet.spec.gateways(cid)
        }
        assert foreign_routes <= all_gateways - own

    def test_cluster_counters_move(self, sim, net):
        bnet = BrokerNetwork.clustered(net, [4, 4, 4], mesh=FAST_MESH)
        converge(sim)
        received = []
        subscriber = make_client(net, sim, bnet.broker("broker-c0-3"), "sub")
        subscriber.subscribe("/gmc/audio/#", received.append)
        publisher = make_client(net, sim, bnet.broker("broker-c1-3"), "pub")
        sim.run_for(10.0)
        for n in range(3):
            publisher.publish("/gmc/audio/mix", n, 200)
        sim.run_for(5.0)
        assert len(received) == 3
        gateways = [
            bnet.broker(name)
            for cid in bnet.spec.clusters
            for name in bnet.spec.gateways(cid)
        ]
        # Member LSAs were flooded scoped (counted at the gateways that
        # hold inter-cluster links), summaries were aggregated at the
        # active gateways, and events crossed the overlay.
        assert sum(g.cluster_lsas_scoped for g in gateways) > 0
        assert sum(g.adverts_aggregated for g in gateways) > 0
        assert sum(g.intercluster_hops for g in gateways) > 0
        stats = gateways[0].statistics()
        for key in (
            "adverts_aggregated",
            "cluster_lsas_scoped",
            "intercluster_hops",
            "gateway_takeovers",
            "lsas_stale",
        ):
            assert key in stats

    def test_flat_brokers_never_touch_cluster_plane(self, sim, net):
        bnet = BrokerNetwork.ring(net, 4, mesh=FAST_MESH)
        converge(sim, 5.0)
        for broker in bnet.brokers():
            assert broker.cluster_id is None
            assert not broker.is_gateway
            assert broker.adverts_aggregated == 0
            assert broker.cluster_lsas_scoped == 0
            assert broker.intercluster_hops == 0
            assert broker.gateway_takeovers == 0


class TestGatewayFailover:
    def test_clustered_active_gateway_death_heals(self, sim, net):
        """Kill c0's active gateway: the standby must take over (counted
        in ``gateway_takeovers``) and cross-cluster delivery must resume
        within the chaos budget."""
        bnet = BrokerNetwork.clustered(net, [4, 4], mesh=FAST_MESH)
        converge(sim)
        received = []
        subscriber = make_client(net, sim, bnet.broker("broker-c0-3"), "sub")
        subscriber.subscribe("/gmc/chat/room", received.append)
        publisher = make_client(net, sim, bnet.broker("broker-c1-3"), "pub")
        sim.run_for(10.0)
        publisher.publish("/gmc/chat/room", "before", 100)
        sim.run_for(5.0)
        assert [event.payload for event in received] == ["before"]

        standby = bnet.broker("broker-c0-1")
        active = standby.gateway.active
        assert active == "broker-c0-0"  # deterministic min-id election
        bnet.crash_broker(active)
        sim.run_for(15.0)  # chaos budget: evict + takeover + re-advertise

        assert standby.gateway.active == standby.broker_id
        assert standby.gateway_takeovers >= 1
        publisher.publish("/gmc/chat/room", "after", 100)
        sim.run_for(5.0)
        assert [event.payload for event in received] == ["before", "after"]

    def test_hierarchical_redundant_uplink_heals(self, sim, net):
        """Flat-topology satellite: ``hierarchical()`` wires a second
        uplink per multi-member cluster, so killing the primary gateway
        no longer isolates the cluster."""
        bnet = BrokerNetwork.hierarchical(net, [3, 3, 3], mesh=FAST_MESH)
        converge(sim, 10.0)
        received = []
        subscriber = make_client(net, sim, bnet.broker("broker-c0-2"), "sub")
        subscriber.subscribe("/gmc/slides/#", received.append)
        publisher = make_client(net, sim, bnet.broker("broker-c2-2"), "pub")
        sim.run_for(5.0)
        publisher.publish("/gmc/slides/page", 1, 100)
        sim.run_for(5.0)
        assert len(received) == 1

        bnet.crash_broker("broker-c0-0")  # primary gateway of cluster 0
        sim.run_for(10.0)  # chaos budget: heartbeat eviction + reroute
        publisher.publish("/gmc/slides/page", 2, 100)
        sim.run_for(5.0)
        assert [event.payload for event in received] == [1, 2]


@pytest.mark.slow
class TestFloodQuiescence:
    def test_large_fabric_reaches_advert_fixed_point(self, sim, net):
        """100-broker-scale clustered fabric: after convergence the
        control plane goes quiet — no new LSA/summary originations or
        subscription versions, no LSA on the wire and no snapshot
        installs over a long observation window."""
        bnet = BrokerNetwork.clustered(net, [7] * 16)
        subscribers = []
        for c in range(0, 16, 4):
            client = make_client(
                net, sim, bnet.broker(f"broker-c{c}-6"), f"sub-{c}"
            )
            client.subscribe(f"/gmc/site-{c}/#", lambda event: None)
            subscribers.append(client)
        sim.run_for(40.0)  # convergence

        def epochs(gateway):
            if gateway is None:
                return (0, 0)  # a member originates on neither overlay table
            return (gateway.overlay.table.epoch, gateway.interest.epoch)

        def control_snapshot():
            return {
                broker.broker_id: (
                    broker.lsas_originated,
                    *epochs(broker.gateway),
                    broker.adverts_aggregated,
                    broker.lsas_received,
                    broker.adverts.versions(),
                    broker.snapshots_installed,
                )
                for broker in bnet.brokers()
            }

        before = control_snapshot()
        sim.run_for(20.0)  # long quiet soak
        after = control_snapshot()
        assert after == before, "control plane kept churning after convergence"
