"""JXTA-like peer-to-peer mode.

The paper: NaradaBrokering "can operate either in a client-server mode
like JMS or in a completely distributed JXTA-like peer-to-peer mode.  By
combining these two disparate models, NaradaBrokering can allow optimized
performance-functionality trade-offs".

Peers discover each other through a :class:`RendezvousService` and then
exchange data **directly** over UDP (full mesh) — one network hop, no
broker CPU on the path.  The hybrid combination: a peer that cannot be
reached directly (it sits behind a firewall) is flagged ``direct=False``
and receives through its private relay topic on a broker instead, so one
group can mix direct and brokered members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broker.client import BrokerClient
from repro.broker.event import NBEvent
from repro.broker.topic import compile_pattern, match_compiled, validate_topic
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.udp import UdpSocket

RENDEZVOUS_PORT = 4000

#: Wire overhead of a P2P data frame (headers comparable to broker envelope).
P2P_FRAME_BYTES = 48
#: CPU cost of sending one direct frame to a peer.
SEND_CPU_COST_S = 8e-6


@dataclass
class PeerInfo:
    peer_id: str
    address: Optional[Address]
    direct: bool


@dataclass
class P2PJoin:
    group: str
    peer: PeerInfo


@dataclass
class P2PJoinAck:
    group: str
    members: List[PeerInfo]


@dataclass
class P2PNotifyJoin:
    group: str
    peer: PeerInfo


@dataclass
class P2PLeave:
    group: str
    peer_id: str


@dataclass
class P2PNotifyLeave:
    group: str
    peer_id: str


@dataclass
class P2PData:
    group: str
    topic: str
    payload: Any
    size: int
    source: str
    published_at: float


class RendezvousService:
    """Peer-discovery service for P2P groups."""

    def __init__(self, host: Host, port: int = RENDEZVOUS_PORT):
        self.host = host
        self.socket = UdpSocket(host, port)
        self.socket.on_receive(self._on_message)
        self._groups: Dict[str, Dict[str, Tuple[PeerInfo, Address]]] = {}

    @property
    def address(self) -> Address:
        return self.socket.local_address

    def members(self, group: str) -> List[str]:
        return sorted(self._groups.get(group, {}))

    def _on_message(self, payload: Any, src: Address, datagram: Any) -> None:
        if isinstance(payload, P2PJoin):
            members = self._groups.setdefault(payload.group, {})
            snapshot = [info for info, _addr in members.values()]
            members[payload.peer.peer_id] = (payload.peer, src)
            self.socket.sendto(
                P2PJoinAck(group=payload.group, members=snapshot), 128, src
            )
            notify = P2PNotifyJoin(group=payload.group, peer=payload.peer)
            for peer_id, (_info, addr) in sorted(members.items()):
                if peer_id != payload.peer.peer_id:
                    self.socket.sendto(notify, 96, addr)
        elif isinstance(payload, P2PLeave):
            members = self._groups.get(payload.group, {})
            members.pop(payload.peer_id, None)
            notify = P2PNotifyLeave(group=payload.group, peer_id=payload.peer_id)
            for _peer_id, (_info, addr) in sorted(members.items()):
                self.socket.sendto(notify, 96, addr)

    def close(self) -> None:
        self.socket.close()


class P2PGroup:
    """One peer's membership in a peer-to-peer collaboration group."""

    def __init__(
        self,
        host: Host,
        peer_id: str,
        group: str,
        rendezvous: Address,
        broker_client: Optional[BrokerClient] = None,
        direct: bool = True,
    ):
        self.host = host
        self.sim = host.sim
        self.peer_id = peer_id
        self.group = group
        self.rendezvous = rendezvous
        self.broker_client = broker_client
        self.direct = direct
        self.socket = UdpSocket(host)
        self.socket.on_receive(self._on_datagram)
        self._peers: Dict[str, PeerInfo] = {}
        self._handlers: List[Tuple[Tuple[str, ...], Callable[[NBEvent], None]]] = []
        self._joined = False
        self._on_joined: Optional[Callable[["P2PGroup"], None]] = None
        self.events_received = 0
        self.events_published = 0
        if not direct and broker_client is None:
            raise ValueError("indirect (firewalled) peers need a broker_client")
        if broker_client is not None:
            broker_client.subscribe(self.relay_topic, self._on_relay_event)

    @property
    def relay_topic(self) -> str:
        """Private broker topic for relayed delivery to this peer."""
        return f"/p2p/{self.group.strip('/')}/relay/{self.peer_id}"

    # ------------------------------------------------------------ control

    def join(self, on_joined: Optional[Callable[["P2PGroup"], None]] = None) -> None:
        self._on_joined = on_joined
        info = PeerInfo(
            peer_id=self.peer_id,
            address=self.socket.local_address if self.direct else None,
            direct=self.direct,
        )
        self.socket.sendto(P2PJoin(group=self.group, peer=info), 128, self.rendezvous)

    def leave(self) -> None:
        self.socket.sendto(
            P2PLeave(group=self.group, peer_id=self.peer_id), 96, self.rendezvous
        )
        self._joined = False

    def peers(self) -> List[str]:
        return sorted(self._peers)

    @property
    def joined(self) -> bool:
        return self._joined

    # ----------------------------------------------------------- pub/sub

    def subscribe(self, pattern: str, handler: Callable[[NBEvent], None]) -> None:
        self._handlers.append((compile_pattern(pattern), handler))

    def publish(self, topic: str, payload: Any, size: int) -> None:
        """Send to every known peer: directly when possible, otherwise via
        the peer's broker relay topic."""
        validate_topic(topic)
        self.events_published += 1
        frame = P2PData(
            group=self.group,
            topic=topic,
            payload=payload,
            size=size,
            source=self.peer_id,
            published_at=self.sim.now,
        )
        for peer_id in sorted(self._peers):
            info = self._peers[peer_id]
            if info.direct and info.address is not None:
                self.host.cpu.execute(
                    SEND_CPU_COST_S,
                    self.socket.sendto,
                    frame,
                    size + P2P_FRAME_BYTES,
                    info.address,
                )
            elif self.broker_client is not None:
                relay = f"/p2p/{self.group.strip('/')}/relay/{peer_id}"
                self.broker_client.publish(relay, frame, size + P2P_FRAME_BYTES)

    # ---------------------------------------------------------- receiving

    def _on_datagram(self, payload: Any, src: Address, datagram: Any) -> None:
        if isinstance(payload, P2PJoinAck):
            for info in payload.members:
                self._peers[info.peer_id] = info
            self._joined = True
            if self._on_joined is not None:
                callback, self._on_joined = self._on_joined, None
                callback(self)
        elif isinstance(payload, P2PNotifyJoin):
            if payload.peer.peer_id != self.peer_id:
                self._peers[payload.peer.peer_id] = payload.peer
        elif isinstance(payload, P2PNotifyLeave):
            self._peers.pop(payload.peer_id, None)
        elif isinstance(payload, P2PData):
            self._deliver(payload)

    def _on_relay_event(self, event: NBEvent) -> None:
        if isinstance(event.payload, P2PData):
            self._deliver(event.payload)

    def _deliver(self, frame: P2PData) -> None:
        if frame.source == self.peer_id:
            return
        event = NBEvent(
            topic=frame.topic,
            payload=frame.payload,
            size=frame.size,
            source=frame.source,
            published_at=frame.published_at,
        )
        self.events_received += 1
        for compiled, handler in self._handlers:
            if match_compiled(compiled, frame.topic):
                handler(event)

    def close(self) -> None:
        self.socket.close()
