"""Broker network assembly: the "distributed sets of NaradaBrokering nodes".

Builds a graph of brokers over simulated hosts and wires peer links — the
"dynamic collection of brokers" of Section 2.3.  The fabric's settings
are one :class:`~repro.broker.spec.FabricSpec`, and its ``mesh`` picks
one of two operating modes:

* **Central** (default, ``mesh=None``): this object computes every
  broker's shortest-path next-hop table (breadth-first) and pushes it with
  ``set_routes`` whenever topology changes (brokers reconcile their
  subscription adverts over a link that comes or goes themselves, by
  digest).  Deterministic and instant — right for calibration
  benchmarks where failure handling is not under test.
* **Autonomous** (``mesh=MeshTiming(...)``): brokers run peer heartbeats
  and flooded link-state adverts, detect dead peers themselves, and
  compute their own routes; this object shrinks to a topology builder
  plus a chaos driver (``crash_broker`` / ``restart_broker`` /
  ``cut_link`` / ``restore_link`` / ``partition`` / ``heal``) that
  injects faults *without telling anyone* — detection and repair are the
  mesh's job.

Topology builders cover the shapes used by the benchmarks: a single
broker, a chain, a star, a ring, and the hierarchical cluster /
super-cluster layout NaradaBrokering favours.  Their keyword options are
:class:`~repro.broker.spec.FabricSpec` fields plus ``tracer``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.broker.broker import Broker
from repro.broker.profile import BrokerProfile, NARADA_PROFILE
from repro.broker.spec import FabricSpec, MeshTiming
from repro.obs.trace import Tracer
from repro.simnet.link import LAN_1G, LinkProfile
from repro.simnet.network import Network
from repro.simnet.node import Host


class BrokerNetwork:
    """A dynamic collection of interconnected brokers."""

    def __init__(
        self,
        network: Network,
        spec: FabricSpec = FabricSpec(),
        profile: BrokerProfile = NARADA_PROFILE,
        tracer: Optional[Tracer] = None,
    ):
        self.network = network
        self.spec = spec
        self.profile = profile
        #: Shared by every broker in the collection, so the sampling
        #: budget (1-in-N) is collection-wide and survives restarts.
        self.tracer = tracer
        self._region_cut: Set[frozenset] = set()
        #: Ground-truth topology: broker → its peers, both in insertion
        #: order.  Edge order (:meth:`_edges`) and breadth-first discovery
        #: follow it, which fixes the order routes are computed in and
        #: links are re-peered in.
        self.graph: Dict[str, Dict[str, None]] = {}
        self._brokers: Dict[str, Broker] = {}
        self._crashed: Dict[str, Tuple[Host, Set[str]]] = {}
        self._cut: Set[Tuple[str, str]] = set()
        #: The plane :meth:`attach_telemetry` built, told of restarts.
        self._telemetry: Optional["TelemetryPlane"] = None

    # ----------------------------------------------------------- topology

    def add_broker(
        self,
        name: str,
        host: Optional[Host] = None,
        link: LinkProfile = LAN_1G,
        profile: Optional[BrokerProfile] = None,
    ) -> Broker:
        """Create a broker named ``name``; a host is created unless given."""
        if name in self._brokers:
            raise ValueError(f"duplicate broker {name!r}")
        self.spec.cluster_of(name)  # a clustered fabric admits only members
        if host is None:
            host = self.network.create_host(name, link=link)
        region = self.spec.region_of(name)
        if region is not None:
            self.network.set_region(host.name, region)
        broker = self._make_broker(name, host, profile)
        self._brokers[name] = broker
        self.graph[name] = {}
        return broker

    def _make_broker(
        self, name: str, host: Host, profile: Optional[BrokerProfile] = None
    ) -> Broker:
        """A broker with this collection's settings; it reads its cluster
        role and region from the spec, so a restart comes back the same."""
        return Broker(
            host, broker_id=name, profile=profile or self.profile,
            tracer=self.tracer, spec=self.spec,
        )

    def cluster_of(self, name: str) -> Optional[str]:
        """The cluster a broker belongs to (None in flat mode)."""
        return self.spec.cluster_of(name)

    def connect(self, a: str, b: str) -> None:
        """Create a peer link between brokers ``a`` and ``b``."""
        self._repeer(a, b)
        if self.spec.mesh is None:
            self._recompute_routes()

    def disconnect(self, a: str, b: str) -> None:
        if b in self.graph.get(a, ()):
            del self.graph[a][b]
            del self.graph[b][a]
        broker_a = self.broker(a)
        broker_b = self.broker(b)
        broker_a.remove_peer(b)
        broker_b.remove_peer(a)
        if self.spec.mesh is None:
            self._recompute_routes()

    def remove_broker(self, name: str) -> None:
        """A broker is administratively retired: unpeer it everywhere,
        recompute routes — which also purges the dead broker's remote
        interest on every survivor (see :meth:`Broker.set_routes`) — and
        only then close it, so no survivor ever sends to a closed host."""
        broker = self.broker(name)
        for peer in list(self.graph[name]):
            self.broker(peer).remove_peer(name)
        self._remove_node(name)
        del self._brokers[name]
        if self.spec.mesh is None:
            self._recompute_routes()
        broker.close()

    def _add_edge(self, a: str, b: str) -> None:
        self.graph[a][b] = None
        self.graph[b][a] = None

    def _remove_node(self, name: str) -> None:
        for peer in self.graph.pop(name):
            del self.graph[peer][name]

    def _edges(self) -> List[Tuple[str, str]]:
        """Every link once, as ``(earlier broker, later broker)`` in
        insertion order — :meth:`partition` and :meth:`heal` sort these,
        so the orientation decides the order links are cut and re-peered."""
        edges: List[Tuple[str, str]] = []
        seen: Set[str] = set()
        for name, peers in self.graph.items():
            edges.extend((name, peer) for peer in peers if peer not in seen)
            seen.add(name)
        return edges

    def _first_hops(self, source: str) -> Dict[str, str]:
        """Next hop from ``source`` to every broker it can reach.

        Breadth-first, level by level: each destination keeps the first
        hop of the path that discovered it first, and the table is in
        discovery order — the same table (order included) as the second
        node of each path from networkx's ``single_source_shortest_path``.
        """
        graph = self.graph
        hops: Dict[str, str] = {}
        frontier = [source]
        while frontier:
            next_frontier = []
            for node in frontier:
                for peer in graph[node]:
                    if peer != source and peer not in hops:
                        hops[peer] = hops.get(node, peer)
                        next_frontier.append(peer)
            frontier = next_frontier
        return hops

    def _recompute_routes(self) -> None:
        for broker_id, broker in self._brokers.items():
            broker.set_routes(self._first_hops(broker_id))

    # ------------------------------------------------------ chaos driving
    #
    # Everything below injects failures *without announcing them*: the
    # graph/bookkeeping here tracks ground truth for the harness, but no
    # broker is told anything — the mesh must notice via heartbeats and
    # repair via LSAs.

    def crash_broker(self, name: str) -> None:
        """Un-announced kill: sockets close, peers learn nothing."""
        broker = self._brokers.pop(name)
        self._crashed[name] = (broker.host, set(self.graph[name]))
        self._remove_node(name)
        broker.close()

    def restart_broker(self, name: str) -> Broker:
        """Bring a crashed broker back on its old host and re-peer it with
        every pre-crash neighbour that is alive and not cut off."""
        host, former_neighbors = self._crashed.pop(name)
        broker = self._make_broker(name, host)
        self._brokers[name] = broker
        self.graph[name] = {}
        for peer in sorted(former_neighbors):
            if (
                peer in self._brokers
                and self._edge_key(name, peer) not in self._cut
            ):
                self._repeer(name, peer)
        if self._telemetry is not None:
            self._telemetry.rebind(broker)
        return broker

    def _repeer(self, a: str, b: str) -> None:
        broker_a = self.broker(a)
        broker_b = self.broker(b)
        intercluster = self.spec.intercluster(a, b)
        self._add_edge(a, b)
        broker_a.add_peer(b, broker_b.peer_address, intercluster=intercluster)
        broker_b.add_peer(a, broker_a.peer_address, intercluster=intercluster)

    def _edge_key(self, a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def cut_link(self, a: str, b: str) -> None:
        """Blackhole the path between two brokers' hosts, silently."""
        self._cut.add(self._edge_key(a, b))
        self.network.set_path_blocked(a, b, True)

    def restore_link(self, a: str, b: str) -> None:
        """Un-blackhole a path; if either side evicted the other during
        the outage, re-peer them (the administrative act of plugging the
        cable back in — LSAs and digests then reconverge the mesh)."""
        self._cut.discard(self._edge_key(a, b))
        self.network.set_path_blocked(a, b, False)
        broker_a = self._brokers.get(a)
        broker_b = self._brokers.get(b)
        if broker_a is None or broker_b is None:
            return  # an endpoint is crashed; restart_broker will re-peer
        if not (broker_a.has_peer(b) and broker_b.has_peer(a)):
            self._repeer(a, b)

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split the mesh: cut every live edge crossing group boundaries."""
        side_of: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                side_of[name] = index
        for a, b in sorted(self._edges()):
            if side_of.get(a) != side_of.get(b):
                self.cut_link(a, b)

    def partition_regions(self, *regions: str) -> None:
        """Blackhole every inter-region path, silently (a cable cut).

        With one region named, it is cut off from every *other* region in
        the fabric (the transoceanic-isolation scenario); with several,
        every pair among the named regions is cut.  Intra-region paths
        are untouched — regional service keeps running.  Restored by
        :meth:`heal` as one fault.
        """
        fabric_regions = self.spec.regions
        if fabric_regions is None:
            raise RuntimeError("partition_regions requires regions")
        named = list(dict.fromkeys(regions))
        for region in named:
            if region not in fabric_regions:
                raise KeyError(f"unknown region {region!r}")
        if len(named) == 1:
            pairs = [
                (named[0], other)
                for other in sorted(fabric_regions)
                if other != named[0]
            ]
        else:
            pairs = [
                (a, b)
                for i, a in enumerate(named)
                for b in named[i + 1:]
            ]
        for a, b in pairs:
            self._region_cut.add(frozenset((a, b)))
            self.network.set_region_blocked(a, b, True)

    def heal(self) -> None:
        """Restore every link and region cut this network currently has."""
        for a, b in sorted(self._cut):
            self.restore_link(a, b)
        if not self._region_cut:
            return
        healed = sorted(tuple(sorted(pair)) for pair in self._region_cut)
        self._region_cut.clear()
        for a, b in healed:
            self.network.set_region_blocked(a, b, False)
        # Re-peer straddling broker links whose endpoints evicted each
        # other during the outage — the administrative act of plugging
        # the cable back in; LSAs and digests reconverge from there.
        healed_pairs = {frozenset(pair) for pair in healed}
        for a, b in sorted(self._edges()):
            region_a = self.spec.region_of(a)
            region_b = self.spec.region_of(b)
            if (
                region_a is None
                or region_b is None
                or frozenset((region_a, region_b)) not in healed_pairs
            ):
                continue
            broker_a = self._brokers.get(a)
            broker_b = self._brokers.get(b)
            if broker_a is None or broker_b is None:
                continue
            if not (broker_a.has_peer(b) and broker_b.has_peer(a)):
                self._repeer(a, b)

    def attach_telemetry(self, **options) -> "TelemetryPlane":
        """Build the telemetry plane for this fabric (DESIGN.md §11).

        Clustered fabrics get delta monitors on cluster-scoped topics,
        per-gateway :class:`~repro.obs.aggregate.ClusterHealthAggregator`
        roles and an O(clusters) fleet console; a flat fabric is the
        one-cluster case (one aggregator, the same console).  Call after
        the topology is built, then ``start()`` the returned plane; a
        later :meth:`restart_broker` rebinds the plane to the new broker.
        Options are forwarded to :class:`~repro.obs.aggregate.TelemetryPlane`.
        """
        from repro.obs.aggregate import TelemetryPlane

        self._telemetry = TelemetryPlane(self, **options)
        return self._telemetry

    # ------------------------------------------------------------- access

    def broker(self, name: str) -> Broker:
        broker = self._brokers.get(name)
        if broker is None:
            raise KeyError(f"unknown broker {name!r}")
        return broker

    def brokers(self) -> List[Broker]:
        return [self.broker(name) for name in self.broker_ids()]

    def broker_ids(self) -> List[str]:
        return sorted(self._brokers)

    def __len__(self) -> int:
        return len(self._brokers)

    def close(self) -> None:
        for broker in self._brokers.values():
            broker.close()

    # -------------------------------------------------------- topologies

    @classmethod
    def _with(
        cls, network: Network, profile: BrokerProfile,
        tracer: Optional[Tracer] = None, **spec_fields,
    ) -> "BrokerNetwork":
        """An empty collection from a builder's keyword options: ``tracer``
        and :class:`~repro.broker.spec.FabricSpec` fields."""
        return cls(network, FabricSpec(**spec_fields), profile, tracer)

    @classmethod
    def single(
        cls, network: Network, name: str = "broker", profile: BrokerProfile = NARADA_PROFILE,
        link: LinkProfile = LAN_1G,
    ) -> "BrokerNetwork":
        """One broker — the paper's Figure 3 configuration."""
        broker_network = cls(network, profile=profile)
        broker_network.add_broker(name, link=link)
        return broker_network

    @classmethod
    def chain(
        cls,
        network: Network,
        count: int,
        name_prefix: str = "broker",
        profile: BrokerProfile = NARADA_PROFILE,
        link: LinkProfile = LAN_1G,
        **options,
    ) -> "BrokerNetwork":
        broker_network = cls._with(network, profile, **options)
        names = [f"{name_prefix}-{i}" for i in range(count)]
        for name in names:
            broker_network.add_broker(name, link=link)
        for left, right in zip(names, names[1:]):
            broker_network.connect(left, right)
        return broker_network

    @classmethod
    def ring(
        cls,
        network: Network,
        count: int,
        name_prefix: str = "broker",
        profile: BrokerProfile = NARADA_PROFILE,
        link: LinkProfile = LAN_1G,
        **options,
    ) -> "BrokerNetwork":
        """A cycle of brokers: every node has two disjoint paths to every
        other, the smallest topology where losing one link or one broker
        leaves the mesh connected — the chaos-soak workhorse."""
        if count < 3:
            raise ValueError("a ring needs at least 3 brokers")
        broker_network = cls.chain(
            network, count, name_prefix, profile, link, **options
        )
        broker_network.connect(
            f"{name_prefix}-{count - 1}", f"{name_prefix}-0"
        )
        return broker_network

    @classmethod
    def star(
        cls,
        network: Network,
        leaves: int,
        name_prefix: str = "broker",
        profile: BrokerProfile = NARADA_PROFILE,
        link: LinkProfile = LAN_1G,
        **options,
    ) -> "BrokerNetwork":
        broker_network = cls._with(network, profile, **options)
        hub = f"{name_prefix}-hub"
        broker_network.add_broker(hub, link=link)
        for i in range(leaves):
            leaf = f"{name_prefix}-{i}"
            broker_network.add_broker(leaf, link=link)
            broker_network.connect(hub, leaf)
        return broker_network

    @classmethod
    def hierarchical(
        cls,
        network: Network,
        cluster_sizes: Iterable[int],
        name_prefix: str = "broker",
        profile: BrokerProfile = NARADA_PROFILE,
        link: LinkProfile = LAN_1G,
        **options,
    ) -> "BrokerNetwork":
        """Clusters of fully-meshed brokers; cluster gateways form a ring —
        the cluster / super-cluster organization of NaradaBrokering.

        Topology-only (flat routing): every cluster's first member sits on
        the primary gateway ring, and clusters with more than one member
        also get a *redundant* second uplink from their second member, so
        crashing the primary gateway no longer isolates the cluster.
        """
        broker_network = cls._with(network, profile, **options)
        cluster_members: List[List[str]] = []
        for c, size in enumerate(cluster_sizes):
            members = [f"{name_prefix}-c{c}-{i}" for i in range(size)]
            for name in members:
                broker_network.add_broker(name, link=link)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    broker_network.connect(a, b)
            if members:
                cluster_members.append(members)
        gateways = [members[0] for members in cluster_members]
        primary: List[Tuple[str, str]] = list(zip(gateways, gateways[1:]))
        if len(gateways) > 2:
            primary.append((gateways[-1], gateways[0]))
        for left, right in primary:
            broker_network.connect(left, right)
        secondaries = [
            members[1] if len(members) > 1 else members[0]
            for members in cluster_members
        ]
        secondary: List[Tuple[str, str]] = list(zip(secondaries, secondaries[1:]))
        if len(secondaries) > 2:
            secondary.append((secondaries[-1], secondaries[0]))
        primary_edges = {frozenset(edge) for edge in primary}
        for left, right in secondary:
            if left != right and frozenset((left, right)) not in primary_edges:
                broker_network.connect(left, right)
        return broker_network

    @classmethod
    def clustered(
        cls,
        network: Network,
        cluster_sizes: Iterable[int],
        name_prefix: str = "broker",
        profile: BrokerProfile = NARADA_PROFILE,
        link: LinkProfile = LAN_1G,
        regions: Optional[Sequence[str]] = None,
        **options,
    ) -> "BrokerNetwork":
        """The hierarchical layout with the cluster *tier* switched on.

        Same shape as :meth:`hierarchical` — fully-meshed clusters on a
        gateway ring — but brokers are provisioned with their cluster
        membership, so SubAdvert/LSA floods are scoped per cluster and
        gateways exchange aggregated interest summaries instead.  Every
        gateway of adjacent clusters is cross-linked, so losing any one
        gateway leaves the inter-cluster fabric connected.  Runs the
        link-state mesh at default timing unless ``mesh=`` says otherwise.

        ``regions`` assigns cluster *c* to ``regions[c % len(regions)]``
        (one region per cluster, cycled) and switches those brokers into
        geo mode; give inter-region paths WAN properties with
        ``network.set_region_latency`` afterwards.
        """
        clusters = {
            f"c{c}": [f"{name_prefix}-c{c}-{i}" for i in range(size)]
            for c, size in enumerate(cluster_sizes)
        }
        if regions:
            options["regions"] = {}
            for c, members in enumerate(clusters.values()):
                region = regions[c % len(regions)]
                options["regions"].setdefault(region, []).extend(members)
        options.setdefault("mesh", MeshTiming())
        broker_network = cls._with(network, profile, clusters=clusters, **options)
        for members in clusters.values():
            for name in members:
                broker_network.add_broker(name, link=link)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    broker_network.connect(a, b)
        cluster_ids = list(clusters)
        pairs: List[Tuple[str, str]] = list(zip(cluster_ids, cluster_ids[1:]))
        if len(cluster_ids) > 2:
            pairs.append((cluster_ids[-1], cluster_ids[0]))
        for left, right in pairs:
            for gateway_a in broker_network.spec.gateways(left):
                for gateway_b in broker_network.spec.gateways(right):
                    broker_network.connect(gateway_a, gateway_b)
        return broker_network
