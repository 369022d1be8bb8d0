"""The network fabric connecting hosts.

Routing model: each host has an access link (latency/jitter/loss sampled on
both the sending and receiving side) and the fabric adds a base latency,
optionally overridden per host pair — that is how the US↔China wide-area
paths in the deployment examples are expressed.  Multicast groups deliver
to every joined (host, port) member, honoring per-member path properties.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.simnet.kernel import Simulator
from repro.simnet.link import LinkProfile, LAN_100M
from repro.simnet.multicast import is_multicast
from repro.simnet.node import Host
from repro.simnet.packet import Address, Datagram
from repro.simnet.rng import SeededStreams


class UnknownHostError(KeyError):
    """Raised when routing to a host that was never added."""


class Network:
    """Container for hosts plus the unicast/multicast delivery logic."""

    def __init__(
        self,
        sim: Simulator,
        streams: Optional[SeededStreams] = None,
        base_latency_s: float = 0.0003,
    ):
        self.sim = sim
        self.streams = streams if streams is not None else SeededStreams(0)
        self.base_latency_s = base_latency_s
        self._hosts: Dict[str, Host] = {}
        self._path_latency: Dict[Tuple[str, str], float] = {}
        self._blocked: Set[FrozenSet[str]] = set()
        self._region_of: Dict[str, str] = {}
        self._region_latency: Dict[Tuple[str, str], Tuple[float, float]] = {}
        self._region_blocked: Set[FrozenSet[str]] = set()
        #: (src host, dst host) -> resolved path record; see _resolve_path.
        self._paths: Dict[Tuple[str, str], tuple] = {}
        self._groups: Dict[str, Set[Address]] = {}
        self._taps: List[Callable[[Datagram], None]] = []
        self.delivered_packets = 0
        self.lost_packets = 0
        self.blackholed_packets = 0

    # ------------------------------------------------------------- hosts

    def add_host(self, host: Host) -> Host:
        if host.name in self._hosts:
            raise ValueError(f"duplicate host name {host.name!r}")
        self._hosts[host.name] = host
        return host

    def create_host(self, name: str, link: LinkProfile = LAN_100M, **kwargs) -> Host:
        """Create, register, and return a new :class:`Host`."""
        return self.add_host(Host(self, name, link=link, **kwargs))

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise UnknownHostError(name) from None

    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    # -------------------------------------------------------------- paths

    def set_path_latency(self, a: str, b: str, latency_s: float) -> None:
        """Override fabric latency between hosts ``a`` and ``b`` (symmetric)."""
        self._path_latency[(a, b)] = latency_s
        self._path_latency[(b, a)] = latency_s
        self.forget_paths()

    def forget_paths(self) -> None:
        """Drop every path record: an input of ``_resolve_path`` changed."""
        self._paths.clear()

    def fabric_latency(self, src: str, dst: str) -> float:
        override = self._path_latency.get((src, dst))
        if override is not None:
            return override
        if self._region_latency:
            ra = self._region_of.get(src)
            rb = self._region_of.get(dst)
            if ra is not None and rb is not None and ra != rb:
                pair = self._region_latency.get((ra, rb))
                if pair is not None:
                    return pair[0]
        return self.base_latency_s

    def set_path_blocked(self, a: str, b: str, blocked: bool = True) -> None:
        """Blackhole (or restore) the fabric path between two hosts.

        A blocked path silently discards every packet in both directions —
        the failure mode a WAN link cut or a network partition presents to
        the endpoints: nothing is delivered and nothing is signalled, so
        liveness must be inferred from silence.
        """
        key = frozenset((a, b))
        if blocked:
            self._blocked.add(key)
        else:
            self._blocked.discard(key)
        self.forget_paths()

    def path_blocked(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._blocked

    # ------------------------------------------------------------- regions

    def set_region(self, host: str, region: str) -> None:
        """Assign ``host`` to a named geographic region.

        Region membership is inert until :meth:`set_region_latency` or
        :meth:`set_region_blocked` gives inter-region paths distinct
        properties — a run that only labels hosts stays bit-identical to
        one that never mentions regions at all.
        """
        self._region_of[host] = region
        self.forget_paths()

    def region_of(self, host: str) -> Optional[str]:
        return self._region_of.get(host)

    def region_hosts(self, region: str) -> List[str]:
        return sorted(
            name for name, r in self._region_of.items() if r == region
        )

    def regions(self) -> List[str]:
        return sorted(set(self._region_of.values()))

    def set_region_latency(
        self, a: str, b: str, latency_s: float, loss_rate: float = 0.0
    ) -> None:
        """Give every path between regions ``a`` and ``b`` a WAN profile.

        ``latency_s`` replaces the fabric base latency for host pairs that
        straddle the two regions (per-pair :meth:`set_path_latency`
        overrides still win); ``loss_rate`` is an extra fabric-level drop
        probability modelling the transoceanic segment.  Symmetric.
        """
        self._region_latency[(a, b)] = (latency_s, loss_rate)
        self._region_latency[(b, a)] = (latency_s, loss_rate)
        self.forget_paths()

    def region_latency(self, a: str, b: str) -> Optional[Tuple[float, float]]:
        return self._region_latency.get((a, b))

    def set_region_blocked(self, a: str, b: str, blocked: bool = True) -> None:
        """Blackhole (or restore) every path between two regions.

        The regional analogue of :meth:`set_path_blocked`: one switch
        severs all host pairs straddling the pair of regions, which is how
        a transoceanic cable cut presents — nothing per-host to enumerate.
        """
        key = frozenset((a, b))
        if blocked:
            self._region_blocked.add(key)
        else:
            self._region_blocked.discard(key)
        self.forget_paths()

    def region_blocked(self, a: str, b: str) -> bool:
        """Whether the pair of *regions* is currently blackholed."""
        return frozenset((a, b)) in self._region_blocked

    def region_path_blocked(self, a: str, b: str) -> bool:
        ra = self._region_of.get(a)
        rb = self._region_of.get(b)
        if ra is None or rb is None or ra == rb:
            return False
        return frozenset((ra, rb)) in self._region_blocked

    # ---------------------------------------------------------- multicast

    def join_group(self, group: str, member: Address) -> None:
        if not is_multicast(group):
            raise ValueError(f"{group!r} is not a multicast group address")
        host = self.host(member.host)
        if not host.multicast_enabled:
            raise RuntimeError(
                f"host {member.host!r} has no multicast connectivity "
                "(the paper notes IP multicast is not ubiquitously available)"
            )
        self._groups.setdefault(group, set()).add(member)

    def leave_group(self, group: str, member: Address) -> None:
        members = self._groups.get(group)
        if members is not None:
            members.discard(member)
            if not members:
                del self._groups[group]

    def group_members(self, group: str) -> Set[Address]:
        return set(self._groups.get(group, ()))

    # ------------------------------------------------------------ routing

    def add_tap(self, tap: Callable[[Datagram], None]) -> None:
        """Register a passive observer called for every routed datagram."""
        self._taps.append(tap)

    def route_future(
        self, datagram: Datagram, tx_done: float, tap: bool = True
    ) -> None:
        """Entry point from a sending NIC, and the one unicast routine.

        ``tx_done`` is the (possibly future) virtual time at which the
        NIC's arithmetic serialization model says the last bit leaves the
        wire; propagation is added on top so the whole send pipeline costs
        one kernel event.  Loss and jitter are sampled here — at enqueue,
        in the sending host's send order, from that host's own stream —
        and what depends only on the host pair comes from its path record.
        """
        if tap and self._taps:
            for observer in self._taps:
                observer(datagram)
        src_name = datagram.src.host
        dst_name = datagram.dst.host
        path = self._paths.get((src_name, dst_name))
        if path is None:
            # Group addresses are never registered as hosts, so only a
            # miss on both tables pays the multicast parse.
            if dst_name not in self._hosts:
                if is_multicast(dst_name):
                    self._route_multicast(datagram, tx_done)
                    return
                raise UnknownHostError(dst_name)
            path = self._resolve_path(src_name, dst_name)
        (blocked, region_loss, src_loss, dst_loss, latency, src_jitter,
         dst_latency, dst_jitter, deliver, rand) = path
        if blocked:
            self.lost_packets += 1
            self.blackholed_packets += 1
            return
        if (
            (region_loss > 0.0 and rand() < region_loss)
            or (src_loss > 0.0 and rand() < src_loss)
            or (dst_loss > 0.0 and rand() < dst_loss)
        ):
            self.lost_packets += 1
            return
        if src_jitter:
            # Same draw as rng.uniform(0, jitter), minus the frame.
            latency += src_jitter * rand()
        latency += dst_latency
        if dst_jitter:
            latency += dst_jitter * rand()
        self.delivered_packets += 1
        sim = self.sim
        sim.post(tx_done - sim.now + latency, deliver, (datagram,))

    def _resolve_path(self, src_name: str, dst_name: str) -> tuple:
        """Build and keep the pair's path record: what :meth:`route_future`
        would otherwise re-derive per packet (DESIGN.md §7).  ``latency``
        pre-sums only ``fabric + src link latency``: the jitter draws land
        between the remaining terms, and float addition must keep the order
        ``(((fabric + src) + src_jitter·r1) + dst) + dst_jitter·r2``.  The
        draws come from the source host's ``network:<name>`` stream, so
        one host's traffic never shifts another's.  An unregistered source
        has no link terms and is not remembered."""
        blocked = self.path_blocked(src_name, dst_name) or \
            self.region_path_blocked(src_name, dst_name)
        latency = self.fabric_latency(src_name, dst_name)
        region_a = self._region_of.get(src_name)
        region_b = self._region_of.get(dst_name)
        wan = None if region_a == region_b else self.region_latency(region_a, region_b)
        src_loss = src_jitter = 0.0
        src_host = self._hosts.get(src_name)
        if src_host is not None:
            link = src_host.link
            src_loss = link.loss_rate
            latency += link.latency_s
            src_jitter = link.jitter_s
        dst_host = self._hosts[dst_name]
        link = dst_host.link
        path = (
            blocked, 0.0 if wan is None else wan[1], src_loss, link.loss_rate,
            latency, src_jitter, link.latency_s, link.jitter_s, dst_host.deliver,
            self.streams.stream(f"network:{src_name}").random,
        )
        if src_host is not None:  # an unregistered name may register later
            self._paths[(src_name, dst_name)] = path
        return path

    def _route_multicast(self, datagram: Datagram, tx_done: float) -> None:
        members = self._groups.get(datagram.dst.host)
        if not members:
            return
        src = datagram.src
        for member in sorted(members):
            if member.host == src.host and member.port == src.port:
                continue  # no loopback to the sending socket
            copy = datagram.clone()
            copy.dst = member
            # Taps saw the group datagram once; the clones are not re-shown.
            self.route_future(copy, tx_done, tap=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network hosts={len(self._hosts)} groups={len(self._groups)}>"
