"""Broker network assembly: the "distributed sets of NaradaBrokering nodes".

Builds a graph of brokers over simulated hosts and wires peer links — the
"dynamic collection of brokers" of Section 2.3.  The fabric's settings
are one :class:`~repro.broker.spec.FabricSpec`, and its ``mesh`` picks
one of two operating modes:

* **Central** (default, ``mesh=None``): this object computes every
  broker's shortest-path next-hop table (breadth-first) and pushes it with
  ``set_routes`` once per build (a builder wires every link first),
  once per restart and once per later ``connect``, ``disconnect`` or
  ``remove_broker`` (brokers reconcile their subscription adverts over a
  link that comes or goes themselves, by digest).  Deterministic and
  instant — right for calibration benchmarks where failure handling is
  not under test.
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

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.broker.broker import Broker
from repro.broker.profile import BrokerProfile, NARADA_PROFILE
from repro.broker.spec import GATEWAYS_PER_CLUSTER, FabricSpec, MeshTiming
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
        self._wire([(a, b)])

    def _wire(self, edges: Iterable[Tuple[str, str]]) -> None:
        """Re-peer every edge in order, then (central plane) push every
        broker's routes once — a build or a restart costs one route
        computation, not one per link."""
        for a, b in edges:
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
        self._wire(
            (name, peer)
            for peer in sorted(former_neighbors)
            if peer in self._brokers
            and self._edge_key(name, peer) not in self._cut
        )
        if self._telemetry is not None:
            self._telemetry.rebind(broker)
        return broker

    def _repeer(self, a: str, b: str) -> None:
        broker_a = self.broker(a)
        broker_b = self.broker(b)
        intercluster = self.spec.intercluster(a, b)
        self.graph[a][b] = self.graph[b][a] = None
        broker_a.add_peer(b, broker_b.peer_address, intercluster=intercluster)
        broker_b.add_peer(a, broker_a.peer_address, intercluster=intercluster)

    def _edge_key(self, a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def cut_link(self, a: str, b: str) -> None:
        """Blackhole the path between two brokers' hosts, silently."""
        self._cut.add(self._edge_key(a, b))
        self.network.set_path_blocked(a, b, True)

    def restore_link(self, a: str, b: str) -> None:
        """Un-blackhole a path and plug its link back in (:meth:`_replug`)."""
        self._cut.discard(self._edge_key(a, b))
        self.network.set_path_blocked(a, b, False)
        self._replug([(a, b)])

    def _replug(self, edges: Iterable[Tuple[str, str]]) -> None:
        """Re-peer each edge whose live endpoints evicted each other
        during an outage (the administrative act of plugging the cable
        back in — LSAs and digests then reconverge the mesh); a crashed
        endpoint is re-peered by :meth:`restart_broker`."""
        live = self._brokers
        for a, b in edges:
            if a in live and b in live and not (
                live[a].has_peer(b) and live[b].has_peer(a)
            ):
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
        healed_pairs = {frozenset(pair) for pair in healed}
        region_of = self.spec.region_of
        self._replug(
            (a, b)
            for a, b in sorted(self._edges())
            if frozenset((region_of(a), region_of(b))) in healed_pairs
        )

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
        cls, network: Network, profile: BrokerProfile, link: LinkProfile,
        names: Iterable[str], edges: Iterable[Tuple[str, str]],
        tracer: Optional[Tracer] = None, **spec_fields,
    ) -> "BrokerNetwork":
        """A collection from a builder's keyword options (``tracer`` and
        :class:`~repro.broker.spec.FabricSpec` fields): ``names``, each
        on its own host, wired by ``edges``."""
        broker_network = cls(network, FabricSpec(**spec_fields), profile, tracer)
        for name in names:
            broker_network.add_broker(name, link=link)
        broker_network._wire(edges)
        return broker_network

    @classmethod
    def single(
        cls, network: Network, name: str = "broker", profile: BrokerProfile = NARADA_PROFILE,
        link: LinkProfile = LAN_1G,
    ) -> "BrokerNetwork":
        """One broker — the paper's Figure 3 configuration."""
        return cls._with(network, profile, link, [name], ())

    @staticmethod
    def _cycle(nodes: Sequence[str]) -> List[Tuple[str, str]]:
        """Consecutive pairs, closed into a ring past two nodes."""
        pairs = list(zip(nodes, nodes[1:]))
        if len(nodes) > 2:
            pairs.append((nodes[-1], nodes[0]))
        return pairs

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
        names = [f"{name_prefix}-{i}" for i in range(count)]
        return cls._with(
            network, profile, link, names, zip(names, names[1:]), **options
        )

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
        names = [f"{name_prefix}-{i}" for i in range(count)]
        return cls._with(
            network, profile, link, names, cls._cycle(names), **options
        )

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
        hub = f"{name_prefix}-hub"
        names = [f"{name_prefix}-{i}" for i in range(leaves)]
        return cls._with(
            network, profile, link, [hub, *names],
            [(hub, leaf) for leaf in names], **options,
        )

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
        clusters = [
            [f"{name_prefix}-c{c}-{i}" for i in range(size)]
            for c, size in enumerate(cluster_sizes)
            if size > 0
        ]
        primary = cls._cycle([members[0] for members in clusters])
        primary_edges = {frozenset(edge) for edge in primary}
        secondary = cls._cycle(
            [members[min(1, len(members) - 1)] for members in clusters]
        )
        edges = [edge for members in clusters for edge in combinations(members, 2)]
        edges += primary + [
            (left, right)
            for left, right in secondary
            if left != right and frozenset((left, right)) not in primary_edges
        ]
        return cls._with(
            network, profile, link,
            [name for members in clusters for name in members], edges,
            **options,
        )

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
        edges = [
            edge for members in clusters.values()
            for edge in combinations(members, 2)
        ]
        edges += [
            (gateway_a, gateway_b)
            for left, right in cls._cycle(list(clusters.values()))
            for gateway_a in left[:GATEWAYS_PER_CLUSTER]
            for gateway_b in right[:GATEWAYS_PER_CLUSTER]
        ]
        return cls._with(
            network, profile, link,
            [name for members in clusters.values() for name in members],
            edges, clusters=clusters, **options,
        )
