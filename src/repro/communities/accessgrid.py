"""AccessGrid community: multicast venues and their XGSP bridge.

AccessGrid (the "de facto Internet2 multimedia collaborative
environment") organizes collaboration into *venues*: each venue owns one
multicast group per media kind, and room-based tools (vic/rat) simply
send RTP into the groups.  Global-MMCS reaches AccessGrid by bridging a
venue's groups onto the XGSP session's broker topics.

Loop safety: a bridge sends into the group from the same socket it joined
with, and the simulated fabric never loops a multicast packet back to the
sending socket — so bridged packets are not re-bridged.  On the broker
side, noLocal delivery does the same for topics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.broker.broker import Broker
from repro.broker.event import NBEvent
from repro.core.xgsp.client import XgspClient
from repro.core.xgsp.messages import JoinAccepted, JoinRejected, LeaveSession
from repro.rtp.packet import RtpPacket
from repro.simnet.multicast import MulticastGroupAddress
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.udp import UdpSocket
from repro.soap.service import SoapService
from repro.soap.wsdl import Operation, WsdlDocument

#: RTP port used inside every venue group.
VENUE_RTP_PORT = 57000
#: Multicast prefix the venue server allocates groups under.
VENUE_GROUP_PREFIX = "233.2"


@dataclass
class Venue:
    """One AccessGrid venue: a multicast group per media kind."""

    name: str
    groups: Dict[str, str] = field(default_factory=dict)  # kind -> group addr

    def group_address(self, kind: str) -> Address:
        return Address(self.groups[kind], VENUE_RTP_PORT)


class VenueServer:
    """Allocates venues and their multicast groups."""

    def __init__(self):
        self._allocator = MulticastGroupAddress(VENUE_GROUP_PREFIX)
        self._venues: Dict[str, Venue] = {}

    def create_venue(self, name: str, media_kinds: Optional[List[str]] = None) -> Venue:
        if name in self._venues:
            raise ValueError(f"venue {name!r} exists")
        venue = Venue(
            name=name,
            groups={
                kind: self._allocator.allocate()
                for kind in (media_kinds or ["audio", "video"])
            },
        )
        self._venues[name] = venue
        return venue

    def venue(self, name: str) -> Venue:
        return self._venues[name]

    def venues(self) -> List[str]:
        return sorted(self._venues)


class AccessGridClient:
    """A vic/rat-style room tool in a venue."""

    def __init__(self, host: Host, venue: Venue):
        self.host = host
        self.venue = venue
        self.on_media: Optional[Callable[[str, RtpPacket], None]] = None
        self._sockets: Dict[str, UdpSocket] = {}
        self.packets_sent = 0
        self.packets_received = 0
        for kind, group in venue.groups.items():
            socket = UdpSocket(host)
            socket.join_group(group)
            socket.on_receive(
                lambda payload, src, dgram, kind=kind: self._on_packet(
                    kind, payload
                )
            )
            self._sockets[kind] = socket

    def send_media(self, kind: str, packet: RtpPacket) -> None:
        socket = self._sockets[kind]
        self.packets_sent += 1
        socket.sendto(packet, packet.wire_size, self.venue.group_address(kind))

    def _on_packet(self, kind: str, payload) -> None:
        if not isinstance(payload, RtpPacket):
            return
        self.packets_received += 1
        if self.on_media is not None:
            self.on_media(kind, payload)

    def close(self) -> None:
        for socket in self._sockets.values():
            socket.close()


VENUE_SERVICE = "AccessGridVenueServer"


def venue_service_wsdl() -> WsdlDocument:
    """The venue server's web-service face (how Global-MMCS discovers a
    community's venues remotely — each community is an "autonomous area"
    with its own servers)."""
    return (
        WsdlDocument(service=VENUE_SERVICE, doc="AccessGrid venue directory")
        .add(Operation.make("createVenue", required=["name"],
                            optional=["media"]))
        .add(Operation.make("lookupVenue", required=["name"]))
        .add(Operation.make("listVenues"))
    )


class VenueSoapService:
    """Publishes a :class:`VenueServer` over SOAP."""

    def __init__(self, venue_server: VenueServer, soap: "SoapService"):
        self.venue_server = venue_server
        soap.register(venue_service_wsdl())
        soap.bind(VENUE_SERVICE, "createVenue", self._op_create)
        soap.bind(VENUE_SERVICE, "lookupVenue", self._op_lookup)
        soap.bind(VENUE_SERVICE, "listVenues",
                  lambda: {"venues": self.venue_server.venues()})

    def _op_create(self, name, media=None):
        venue = self.venue_server.create_venue(
            name, list(media) if media else None
        )
        return {"name": venue.name, "groups": dict(venue.groups)}

    def _op_lookup(self, name):
        venue = self.venue_server.venue(name)
        return {"name": venue.name, "groups": dict(venue.groups)}


class AccessGridBridge:
    """Bridges one venue into one XGSP session (both directions)."""

    def __init__(
        self,
        host: Host,
        venue: Venue,
        broker: Broker,
        bridge_id: Optional[str] = None,
    ):
        self.host = host
        self.venue = venue
        self.broker = broker
        self.bridge_id = bridge_id or f"ag-bridge-{venue.name}"
        self.xgsp = XgspClient(host, broker, self.bridge_id)
        self._sockets: Dict[str, UdpSocket] = {}
        self._topics: Dict[str, str] = {}
        self.session_id: Optional[str] = None
        self.joined = False
        self.packets_to_topic = 0
        self.packets_to_venue = 0

    def connect_session(
        self,
        session_id: str,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Join the XGSP session and start bridging common media kinds."""

        def on_join(response) -> None:
            if isinstance(response, JoinRejected) or not isinstance(
                response, JoinAccepted
            ):
                if on_result is not None:
                    on_result(False)
                return
            self.session_id = session_id
            self.joined = True
            for media in response.media:
                if media.kind not in self.venue.groups:
                    continue
                self._topics[media.kind] = media.topic
                self._bridge_kind(media.kind, media.topic)
            if on_result is not None:
                on_result(True)

        self.xgsp.join(
            session_id,
            community="accessgrid",
            terminal=f"ag:{self.venue.name}",
            media_kinds=sorted(self.venue.groups),
            on_result=on_join,
        )

    def _bridge_kind(self, kind: str, topic: str) -> None:
        socket = UdpSocket(self.host)
        socket.join_group(self.venue.groups[kind])
        socket.on_receive(
            lambda payload, src, dgram, topic=topic: self._venue_to_topic(
                topic, payload
            )
        )
        self._sockets[kind] = socket
        self.xgsp.subscribe_media(
            topic,
            lambda event, kind=kind: self._topic_to_venue(kind, event),
        )

    def _venue_to_topic(self, topic: str, payload) -> None:
        if not isinstance(payload, RtpPacket):
            return
        self.packets_to_topic += 1
        self.xgsp.publish_media(topic, payload, payload.wire_size)

    def _topic_to_venue(self, kind: str, event: NBEvent) -> None:
        payload = event.payload
        if not isinstance(payload, RtpPacket):
            return
        socket = self._sockets.get(kind)
        if socket is None or socket.closed:
            return
        self.packets_to_venue += 1
        # Send from the joined socket: the fabric never loops multicast
        # back to the sending socket, so we won't re-bridge our own send.
        socket.sendto(payload, payload.wire_size, self.venue.group_address(kind))

    def disconnect(self) -> None:
        if self.joined and self.session_id is not None:
            self.xgsp.request(
                LeaveSession(
                    session_id=self.session_id, participant=self.bridge_id
                )
            )
        self.joined = False
        for socket in self._sockets.values():
            socket.close()
        self._sockets.clear()
