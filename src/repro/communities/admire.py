"""The Admire community (Beihang University), reached via web services.

Section 3.2: "For Admire community, XGSP Web Server invokes the
web-services of Admire to notify the address of the rendezvous point.
And Admire responds with its rendezvous point in SOAP reply.  After that,
both sides will create RTP agents on this rendezvous."

:class:`AdmireSystem` is the remote community: its SOAP service exposes
``openRendezvous``/``closeRendezvous`` plus the WSDL-CI membership
operations, and its internal distribution hub fans media out to Admire
clients.  :class:`AdmireConnector` is the Global-MMCS side: it joins the
XGSP session, deploys RTP-proxy agents next to the broker, exchanges
rendezvous addresses over SOAP, and wires the two agents together.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.broker.broker import Broker
from repro.broker.rtp_proxy import RtpProxy
from repro.core.xgsp.client import XgspClient
from repro.core.xgsp.messages import JoinAccepted, LeaveSession
from repro.rtp.packet import RtpPacket
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.udp import UdpSocket
from repro.soap.client import SoapClient
from repro.soap.service import SoapService
from repro.soap.wsdl import Operation, WsdlDocument

ADMIRE_SERVICE = "AdmireCollaboration"


def admire_wsdl() -> WsdlDocument:
    """Admire's collaboration web service (WSDL-CI membership subset plus
    the rendezvous operations the paper describes)."""
    return (
        WsdlDocument(service=ADMIRE_SERVICE, doc="Admire videoconferencing")
        .add(Operation.make("openRendezvous",
                            required=["session_id", "remote_agents"]))
        .add(Operation.make("closeRendezvous", required=["session_id"]))
        .add(Operation.make("listMembers", required=["session_id"]))
        .add(Operation.make("describe"))
    )


class AdmireClient:
    """One participant inside the Admire system."""

    def __init__(self, system: "AdmireSystem", host: Host, client_id: str):
        self.system = system
        self.host = host
        self.client_id = client_id
        self.on_media: Optional[Callable[[str, RtpPacket], None]] = None
        self._sockets: Dict[str, UdpSocket] = {}
        self.packets_received = 0
        for kind in system.MEDIA_KINDS:
            socket = UdpSocket(host)
            socket.on_receive(
                lambda payload, src, dgram, kind=kind: self._receive(kind, payload)
            )
            self._sockets[kind] = socket

    def send_media(self, kind: str, packet: RtpPacket) -> None:
        self.system.distribute(self.client_id, kind, packet)

    def _receive(self, kind: str, payload) -> None:
        if not isinstance(payload, RtpPacket):
            return
        self.packets_received += 1
        if self.on_media is not None:
            self.on_media(kind, payload)


class AdmireSystem:
    """The Admire community server: SOAP face + internal distribution."""

    #: The media an Admire system carries.
    MEDIA_KINDS = ("audio", "video")

    def __init__(self, host: Host, soap_port: int = 8090):
        self.host = host
        self.sim = host.sim
        self.soap = SoapService(host, soap_port)
        self.soap.register(admire_wsdl())
        self.soap.bind(ADMIRE_SERVICE, "openRendezvous", self._op_open_rendezvous)
        self.soap.bind(ADMIRE_SERVICE, "closeRendezvous", self._op_close_rendezvous)
        self.soap.bind(ADMIRE_SERVICE, "listMembers", self._op_list_members)
        self.soap.bind(ADMIRE_SERVICE, "describe", lambda: {
            "system": "Admire", "media": list(self.MEDIA_KINDS),
        })
        self._clients: Dict[str, AdmireClient] = {}
        # Internal hub sockets used to push media to member sockets.
        self._hub_sockets: Dict[str, UdpSocket] = {}
        # session_id -> {kind: (agent socket, remote agent Address)}
        self._rendezvous: Dict[str, Dict[str, tuple]] = {}
        self.packets_out = 0
        self.packets_in = 0

    @property
    def soap_address(self) -> Address:
        return self.soap.address

    # ------------------------------------------------------------ clients

    def attach_client(self, host: Host, client_id: str) -> AdmireClient:
        client = AdmireClient(self, host, client_id)
        self._clients[client_id] = client
        return client

    def distribute(self, source_id: str, kind: str, packet: RtpPacket) -> None:
        """Admire-internal fan-out + forward to every session rendezvous."""
        for client_id in sorted(self._clients):
            if client_id == source_id:
                continue
            client = self._clients[client_id]
            socket = client._sockets.get(kind)
            if socket is not None:
                # The hub delivers straight to the member's media socket.
                agent = self._agent_socket(kind)
                agent.sendto(packet, packet.wire_size, socket.local_address)
        for session_id, agents in self._rendezvous.items():
            entry = agents.get(kind)
            if entry is not None:
                agent_socket, remote = entry
                self.packets_out += 1
                agent_socket.sendto(packet, packet.wire_size, remote)

    def _agent_socket(self, kind: str) -> UdpSocket:
        socket = self._hub_sockets.get(kind)
        if socket is None:
            socket = UdpSocket(self.host)
            self._hub_sockets[kind] = socket
        return socket

    # --------------------------------------------------------- rendezvous

    def _op_open_rendezvous(self, session_id, remote_agents):
        """Create our RTP agents for a session and reply with their
        addresses.  ``remote_agents`` maps kind -> "host:port" of the
        Global-MMCS agents."""
        agents: Dict[str, tuple] = {}
        ours: Dict[str, str] = {}
        for kind, remote_spec in sorted(dict(remote_agents).items()):
            if kind not in self.MEDIA_KINDS:
                continue
            remote_host, _, remote_port = str(remote_spec).partition(":")
            remote = Address(remote_host, int(remote_port))
            socket = UdpSocket(self.host)
            socket.on_receive(
                lambda payload, src, dgram, kind=kind: self._from_global(
                    kind, payload
                )
            )
            agents[kind] = (socket, remote)
            ours[kind] = f"{socket.local_address.host}:{socket.local_address.port}"
        self._rendezvous[session_id] = agents
        return {"session_id": session_id, "agents": ours}

    def _op_close_rendezvous(self, session_id):
        agents = self._rendezvous.pop(session_id, None)
        if agents:
            for socket, _remote in agents.values():
                socket.close()
        return {"session_id": session_id}

    def _op_list_members(self, session_id):
        return {"members": sorted(self._clients)}

    def _from_global(self, kind: str, payload) -> None:
        """Media arriving from Global-MMCS: deliver to all Admire clients."""
        if not isinstance(payload, RtpPacket):
            return
        self.packets_in += 1
        for client_id in sorted(self._clients):
            client = self._clients[client_id]
            socket = client._sockets.get(kind)
            if socket is not None:
                agent = self._agent_socket(kind)
                agent.sendto(payload, payload.wire_size, socket.local_address)


class AdmireConnector:
    """Global-MMCS side: XGSP join + SOAP rendezvous + RTP agents."""

    def __init__(
        self,
        host: Host,
        broker: Broker,
        admire_soap: Address,
        connector_id: str = "admire-connector",
    ):
        self.host = host
        self.broker = broker
        self.admire_soap = admire_soap
        self.connector_id = connector_id
        self.xgsp = XgspClient(host, broker, connector_id)
        self.soap_client = SoapClient(host)
        self.soap_client.import_wsdl(admire_wsdl())
        self._proxy: Optional[RtpProxy] = None
        self.session_id: Optional[str] = None
        self.connected = False

    def connect_session(
        self,
        session_id: str,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Join the session, then negotiate the rendezvous over SOAP."""

        def on_join(response) -> None:
            if not isinstance(response, JoinAccepted):
                if on_result is not None:
                    on_result(False)
                return
            self._negotiate_rendezvous(session_id, response, on_result)

        self.xgsp.join(
            session_id,
            community="admire",
            terminal="admire:gateway",
            on_result=on_join,
        )

    def _negotiate_rendezvous(
        self,
        session_id: str,
        accepted: JoinAccepted,
        on_result: Optional[Callable[[bool], None]],
    ) -> None:
        proxy = RtpProxy(self.broker.host, self.broker,
                         proxy_id=f"admire-{session_id}")
        self._proxy = proxy
        topics = {media.kind: media.topic for media in accepted.media}
        our_agents = {}
        for kind, topic in sorted(topics.items()):
            ingress = proxy.bridge_inbound(topic)
            our_agents[kind] = f"{ingress.host}:{ingress.port}"

        def on_reply(body) -> None:
            for kind, spec in sorted(dict(body.get("agents", {})).items()):
                topic = topics.get(kind)
                if topic is None:
                    continue
                remote_host, _, remote_port = str(spec).partition(":")
                proxy.bridge_outbound(topic, Address(remote_host, int(remote_port)))
            self.session_id = session_id
            self.connected = True
            if on_result is not None:
                on_result(True)

        self.soap_client.invoke(
            self.admire_soap,
            ADMIRE_SERVICE,
            "openRendezvous",
            {"session_id": session_id, "remote_agents": our_agents},
            on_result=on_reply,
            on_fault=lambda fault: on_result(False) if on_result else None,
        )

    def disconnect(self) -> None:
        if self.session_id is not None:
            self.soap_client.invoke(
                self.admire_soap, ADMIRE_SERVICE, "closeRendezvous",
                {"session_id": self.session_id},
            )
            self.xgsp.request(
                LeaveSession(
                    session_id=self.session_id, participant=self.connector_id
                )
            )
        if self._proxy is not None:
            self._proxy.close()
        self.connected = False
