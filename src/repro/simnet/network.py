"""The network fabric connecting hosts.

Routing model: each host has an access link (latency/jitter/loss sampled on
both the sending and receiving side) and the fabric adds a base latency,
optionally overridden per host pair — that is how the US↔China wide-area
paths in the deployment examples are expressed.  Multicast groups deliver
to every joined (host, port) member, honoring per-member path properties.
The per-packet routine is ``Host.send``; this class holds the tables it
reads and builds the per-host path records it keeps.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.simnet.kernel import Simulator
from repro.simnet.link import LinkProfile, LAN_100M
from repro.simnet.multicast import is_multicast
from repro.simnet.node import MULTICAST, Host
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
        self._groups: Dict[str, Set[Address]] = {}
        self._taps: List[Callable[[Datagram], None]] = []
        #: What path records share: one bound ``deliver`` per destination
        #: host, and one bound draw per sending host, of its
        #: ``network:<name>`` generator (``SeededStreams.generator``).
        self._delivers: Dict[str, Callable[[Datagram], None]] = {}
        self._draws: Dict[str, Callable[[], float]] = {}
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
        """Drop every path record: an input of :meth:`resolve_path` changed."""
        for host in self._hosts.values():
            host._paths.clear()

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
        self.forget_paths()  # records say whether there are taps to call

    def draws(self, name: str):
        """Host ``name``'s loss and jitter generator: every draw of a
        packet it sends comes from here."""
        return self._draw(name).__self__

    def _draw(self, name: str) -> Callable[[], float]:
        draw = self._draws.get(name)
        if draw is None:
            generator = self.streams.generator(f"network:{name}")
            draw = self._draws[name] = generator.random
        return draw

    def resolve_path(self, host: Host, dst_name: str) -> tuple:
        """Build and keep ``host``'s path record to ``dst_name``: what
        :meth:`Host.send` would otherwise re-derive per packet (DESIGN.md
        §7).  ``(hazard, latency, src_jitter, dst_latency, dst_jitter,
        deliver, rand)``: ``hazard`` is ``MULTICAST`` for a group, else
        None unless taps, a blackhole or a lossy leg make it ``(taps,
        blocked, region_loss, src_loss, dst_loss)``.  ``latency`` pre-sums
        only ``fabric + src``: float addition must keep the order
        ``(((fabric + src) + src_jitter·r1) + dst) + dst_jitter·r2``.  The
        draws come from the sender's generator (:meth:`draws`), so one
        host's traffic never shifts another's; records share its bound
        draw and the destination's bound ``deliver``."""
        src_name = host.name
        dst_host = self._hosts.get(dst_name)
        if dst_host is None:
            if not is_multicast(dst_name):  # groups are never hosts
                raise UnknownHostError(dst_name)
            path = (MULTICAST, 0.0, 0.0, 0.0, 0.0, None, None)
        else:
            blocked = self.path_blocked(src_name, dst_name) or \
                self.region_path_blocked(src_name, dst_name)
            region_a = self._region_of.get(src_name)
            region_b = self._region_of.get(dst_name)
            wan = None if region_a == region_b \
                else self.region_latency(region_a, region_b)
            region_loss = 0.0 if wan is None else wan[1]
            src_link = host.link
            dst_link = dst_host.link
            hazard = None
            if (
                self._taps or blocked or region_loss > 0.0
                or src_link.loss_rate > 0.0 or dst_link.loss_rate > 0.0
            ):
                hazard = (
                    self._taps, blocked, region_loss,
                    src_link.loss_rate, dst_link.loss_rate,
                )
            deliver = self._delivers.get(dst_name)
            if deliver is None:
                deliver = self._delivers[dst_name] = dst_host.deliver
            path = (
                hazard,
                self.fabric_latency(src_name, dst_name) + src_link.latency_s,
                src_link.jitter_s, dst_link.latency_s, dst_link.jitter_s,
                deliver, self._draw(src_name),
            )
        if self._hosts.get(src_name) is host:  # forget_paths reaches it
            host._paths[dst_name] = path
        return path

    def route_future(self, host: Host, datagram: Datagram, tx_done: float) -> None:
        """Expand ``host``'s multicast ``datagram``, serialized by
        ``tx_done``: taps see it once, and each member but the sending
        socket gets a copy through :meth:`Host.send`."""
        for observer in self._taps:
            observer(datagram)
        src = datagram.src
        for member in sorted(self._groups.get(datagram.dst.host, ())):
            if member == src:
                continue  # no loopback to the sending socket
            host.send(src.port, member, datagram.payload, datagram.size, tx_done)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network hosts={len(self._hosts)} groups={len(self._groups)}>"
