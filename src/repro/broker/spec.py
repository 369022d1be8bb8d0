"""A broker fabric's shape and protocol settings, as one frozen value.

A :class:`FabricSpec` says which control plane a fabric's brokers run
(``mesh``), whether they protect themselves from overload and at which
watermarks (``overload``), and which cluster and region every broker
belongs to.  It rejects every invalid combination once, when it is
built; :class:`~repro.broker.network.BrokerNetwork` builds its brokers
from it, and a :class:`~repro.broker.broker.Broker` reads its own
cluster role and region from it by its id, checking nothing itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.broker.overload import ShedWatermarks

#: Gateway brokers provisioned per cluster (the first members listed):
#: the lowest live gateway id is active, the rest are hot standbys.
GATEWAYS_PER_CLUSTER = 2


@dataclass(frozen=True)
class MeshTiming:
    """The link-state mesh's failure detector: a peer that stays silent
    for ``miss_limit`` heartbeats of ``heartbeat_s`` seconds is evicted."""

    heartbeat_s: float = 1.0
    miss_limit: int = 3

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0 or self.miss_limit < 1:
            raise ValueError(
                "a mesh needs heartbeat_s > 0 and miss_limit >= 1, got "
                f"{self.heartbeat_s!r} and {self.miss_limit!r}"
            )


#: Fast failure detection (a dead peer is evicted within 0.5-0.75 s):
#: the chaos scenarios, the tests and the CLI demos run with it.
FAST_MESH = MeshTiming(heartbeat_s=0.25, miss_limit=2)

Membership = Mapping[str, Tuple[str, ...]]


def _frozen(groups: Optional[Mapping[str, Sequence[str]]]) -> Optional[Membership]:
    if not groups:
        return None
    return MappingProxyType(
        {group: tuple(members) for group, members in groups.items()}
    )


def _index(groups: Optional[Membership], kind: str) -> Dict[str, str]:
    """Broker name → the group listing it; a broker listed twice is an
    error."""
    group_of: Dict[str, str] = {}
    for group, members in (groups or {}).items():
        for name in members:
            if name in group_of:
                raise ValueError(f"broker {name!r} assigned to two {kind}")
            group_of[name] = group
    return group_of


@dataclass(frozen=True)
class FabricSpec:
    """Every broker-fabric setting that is not a topology edge.

    * ``mesh`` — ``None`` is the central plane (the network pushes every
      broker's routes); a :class:`MeshTiming` runs the link-state mesh,
      where brokers detect dead peers and compute their own routes.
    * ``overload`` — the watermarks of each broker's overload controller,
      ``None`` for no controller.
    * ``clusters`` — cluster id → ordered member names: floods stay
      inside each cluster, and the first :data:`GATEWAYS_PER_CLUSTER`
      members run the gateway overlay (DESIGN.md §8).  Needs the mesh.
    * ``regions`` — region name → member names: cost-weighted routing,
      locality pinning and minority parking (DESIGN.md §12).  Needs the
      mesh, because geo brokers keep unreachable brokers' interest for
      the WAN park and only link-state eviction ever releases it.
    """

    mesh: Optional[MeshTiming] = None
    overload: Optional[ShedWatermarks] = ShedWatermarks()
    clusters: Optional[Membership] = None
    regions: Optional[Membership] = None
    _cluster_of: Dict[str, str] = field(
        init=False, repr=False, compare=False
    )
    _region_of: Dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        clusters, regions = _frozen(self.clusters), _frozen(self.regions)
        for groups, kind, why in (
            (clusters, "clusters", "gateway election and scoped flooding"),
            (regions, "regions", "partition survival"),
        ):
            if groups is not None and self.mesh is None:
                raise ValueError(
                    f"{kind} need the link-state mesh (mesh=MeshTiming()): "
                    f"{why} is mesh-driven"
                )
        for cluster_id, members in (clusters or {}).items():
            if not members:
                raise ValueError(f"cluster {cluster_id!r} has no members")
        set_field = object.__setattr__
        set_field(self, "clusters", clusters)
        set_field(self, "regions", regions)
        set_field(self, "_cluster_of", _index(clusters, "clusters"))
        set_field(self, "_region_of", _index(regions, "regions"))

    def cluster_of(self, name: str) -> Optional[str]:
        """The cluster of broker ``name``; None when the fabric is flat.
        A clustered fabric has no broker outside its clusters."""
        if self.clusters is None:
            return None
        cluster_id = self._cluster_of.get(name)
        if cluster_id is None:
            raise ValueError(
                f"broker {name!r} is not a member of any provisioned cluster"
            )
        return cluster_id

    def gateways(self, cluster_id: str) -> Tuple[str, ...]:
        """The provisioned gateway brokers of one cluster."""
        return self.clusters[cluster_id][:GATEWAYS_PER_CLUSTER]

    def region_of(self, name: str) -> Optional[str]:
        """The region of broker ``name``; None when it has none."""
        return self._region_of.get(name)

    def intercluster(self, a: str, b: str) -> bool:
        """Whether a link between ``a`` and ``b`` crosses clusters; such
        a link must join gateways of both."""
        if self.clusters is None:
            return False
        cluster_a, cluster_b = self.cluster_of(a), self.cluster_of(b)
        if cluster_a == cluster_b:
            return False
        if a not in self.gateways(cluster_a) or b not in self.gateways(cluster_b):
            raise ValueError(
                f"inter-cluster link {a!r}–{b!r} must join gateway "
                "brokers of their clusters"
            )
        return True
