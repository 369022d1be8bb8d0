"""Global-MMCS: one-call assembly of the whole system (Figure 2).

Builds, on a deterministic simulated network: the NaradaBrokering broker
network, the XGSP session / web / directory servers, the H.323 servers
(gatekeeper + gateway), the SIP servers (proxy + registrar + gateway +
IM chat rooms), the streaming service (Helix + producers), the AccessGrid
venue server, and optionally an Admire community with its SOAP-connected
rendezvous.  Factory helpers create clients of every kind, so examples
and benchmarks read like deployment scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.broker.broker import Broker
from repro.broker.network import BrokerNetwork
from repro.broker.profile import BrokerProfile, NARADA_PROFILE
from repro.communities.accessgrid import AccessGridBridge, AccessGridClient, Venue, VenueServer
from repro.communities.admire import AdmireConnector, AdmireSystem
from repro.core.xgsp.client import XgspClient
from repro.core.xgsp.directory import CollaborationServer, XgspDirectory
from repro.core.xgsp.messages import SessionCreated
from repro.core.xgsp.session_server import XgspSessionServer
from repro.core.xgsp.web_server import XgspWebServer
from repro.h323.gatekeeper import Gatekeeper
from repro.h323.gateway import H323XgspGateway
from repro.h323.terminal import H323Terminal
from repro.simnet.kernel import Simulator
from repro.simnet.link import LAN_1G, LinkProfile
from repro.simnet.network import Network
from repro.simnet.node import Host
from repro.simnet.rng import SeededStreams
from repro.sip.gateway import SipXgspGateway
from repro.sip.im import ChatRoomService
from repro.sip.presence import PresenceService
from repro.sip.proxy import SipProxy
from repro.sip.registrar import LocationService, SipRegistrar
from repro.sip.useragent import SipUserAgent
from repro.streaming.formats import TranscodeProfile, REAL_300K
from repro.streaming.helix import HelixServer
from repro.streaming.player import RealPlayer, WindowsMediaPlayer
from repro.streaming.producer import RealProducer


@dataclass
class MMCSConfig:
    """Deployment knobs for one Global-MMCS instance."""

    seed: int = 0
    broker_topology: str = "single"  # single | chain | star, sized by broker_count
    broker_count: int = 1
    broker_profile: BrokerProfile = NARADA_PROFILE
    sip_domain: str = "mmcs.org"
    enable_h323: bool = True
    enable_sip: bool = True
    enable_streaming: bool = True
    enable_accessgrid: bool = True
    enable_admire: bool = False
    server_link: LinkProfile = LAN_1G


class GlobalMMCS:
    """The assembled collaboration system."""

    def __init__(self, config: Optional[MMCSConfig] = None):
        self.config = config if config is not None else MMCSConfig()
        self.sim = Simulator()
        self.streams = SeededStreams(self.config.seed)
        self.net = Network(self.sim, self.streams)

        # --- messaging middleware -------------------------------------
        self.broker_network = self._build_brokers()
        self.broker: Broker = self.broker_network.brokers()[0]

        # --- XGSP servers ----------------------------------------------
        self.directory = XgspDirectory()
        xgsp_host = self.net.create_host("xgsp-server", link=self.config.server_link)
        self.session_server = XgspSessionServer(xgsp_host, self.broker)
        web_host = self.net.create_host("web-server", link=self.config.server_link)
        self.web_server = XgspWebServer(
            web_host, self.broker, directory=self.directory
        )
        admin_host = self.net.create_host("mmcs-admin", link=self.config.server_link)
        self.admin = XgspClient(admin_host, self.broker, "mmcs-admin")

        # --- community servers ------------------------------------------
        self.gatekeeper: Optional[Gatekeeper] = None
        self.h323_gateway: Optional[H323XgspGateway] = None
        if self.config.enable_h323:
            gk_host = self.net.create_host("gk-host", link=self.config.server_link)
            self.gatekeeper = Gatekeeper(gk_host, gatekeeper_id="mmcs-zone")
            self.h323_gateway = H323XgspGateway(
                gk_host, self.gatekeeper, self.broker
            )
            self.directory.register_community("h323", "H.323 zone")
            self.directory.register_server(CollaborationServer(
                server_id="h323-gateway", kind="h323-gateway", community="h323",
            ))

        self.sip_proxy: Optional[SipProxy] = None
        self.sip_registrar: Optional[SipRegistrar] = None
        self.sip_gateway: Optional[SipXgspGateway] = None
        self.chat_rooms: Optional[ChatRoomService] = None
        self.presence: Optional[PresenceService] = None
        if self.config.enable_sip:
            sip_host = self.net.create_host("sip-host", link=self.config.server_link)
            location = LocationService()
            self.sip_proxy = SipProxy(
                sip_host, self.config.sip_domain, location=location
            )
            self.sip_registrar = SipRegistrar(sip_host, port=5070, location=location)
            self.sip_gateway = SipXgspGateway(self.sip_proxy, self.broker)
            self.chat_rooms = ChatRoomService(self.sip_proxy)
            self.presence = PresenceService(self.sip_proxy)
            self.directory.register_community("sip", "SIP domain")
            self.directory.register_server(CollaborationServer(
                server_id="sip-gateway", kind="sip-gateway", community="sip",
            ))

        self.helix: Optional[HelixServer] = None
        self._producers: Dict[str, RealProducer] = {}
        if self.config.enable_streaming:
            helix_host = self.net.create_host("helix-host", link=self.config.server_link)
            self.helix = HelixServer(helix_host)

        self.venue_server: Optional[VenueServer] = None
        if self.config.enable_accessgrid:
            self.venue_server = VenueServer()
            self.directory.register_community("accessgrid", "AccessGrid venues")

        self.admire: Optional[AdmireSystem] = None
        self.admire_connector: Optional[AdmireConnector] = None
        if self.config.enable_admire:
            admire_host = self.net.create_host(
                "admire-host", link=self.config.server_link
            )
            self.admire = AdmireSystem(admire_host)
            connector_host = self.net.create_host(
                "admire-connector-host", link=self.config.server_link
            )
            self.admire_connector = AdmireConnector(
                connector_host, self.broker, self.admire.soap_address
            )
            self.directory.register_community("admire", "Admire (Beihang)")

        self._host_counter = 0

    # ----------------------------------------------------------- topology

    def _build_brokers(self) -> BrokerNetwork:
        config = self.config
        if config.broker_topology == "single" or config.broker_count <= 1:
            return BrokerNetwork.single(
                self.net, "broker-0", profile=config.broker_profile
            )
        if config.broker_topology == "chain":
            return BrokerNetwork.chain(
                self.net, config.broker_count, profile=config.broker_profile
            )
        if config.broker_topology == "star":
            return BrokerNetwork.star(
                self.net, config.broker_count - 1, profile=config.broker_profile
            )
        raise ValueError(
            f"unknown broker topology {config.broker_topology!r}"
        )

    # ------------------------------------------------------------ helpers

    def run_for(self, duration_s: float) -> None:
        self.sim.run_for(duration_s)

    def start(self, settle_s: float = 2.0) -> None:
        """Let servers connect/subscribe before the first operation."""
        self.sim.run_for(settle_s)

    def new_host(self, name: Optional[str] = None,
                 link: Optional[LinkProfile] = None) -> Host:
        if name is None:
            self._host_counter += 1
            name = f"client-host-{self._host_counter}"
        return self.net.create_host(
            name, link=link if link is not None else LinkProfile()
        )

    # ----------------------------------------------------- session admin

    def create_session(
        self,
        title: str,
        media_kinds: Optional[List[str]] = None,
        settle_s: float = 2.0,
        attempts: int = 3,
    ) -> SessionCreated:
        """Create a session through XGSP signaling and wait for the reply.

        Retries on signaling timeout: during cold start the admin client's
        very first request can race the session server's subscription.
        """
        created: List[SessionCreated] = []
        for _attempt in range(attempts):
            self.admin.create_session(
                title, media_kinds or ["audio", "video"],
                on_created=created.append,
            )
            self.sim.run_for(settle_s)
            if created:
                return created[0]
        raise RuntimeError(
            f"session creation did not complete after {attempts} attempts"
        )

    # ------------------------------------------------------ client makers

    def create_native_client(self, participant: str,
                             link: Optional[LinkProfile] = None) -> XgspClient:
        host = self.new_host(f"{participant}-host", link)
        return XgspClient(host, self.broker, participant)

    def create_sip_user(self, user: str,
                        link: Optional[LinkProfile] = None) -> SipUserAgent:
        if self.sip_proxy is None or self.sip_registrar is None:
            raise RuntimeError("SIP is disabled in this deployment")
        host = self.new_host(f"{user}-host", link)
        agent = SipUserAgent(
            host, f"sip:{user}@{self.config.sip_domain}", self.sip_proxy.address
        )
        agent.register(self.sip_registrar.address)
        self.directory.register_user(user, community="sip")
        return agent

    def create_h323_terminal(self, alias: str,
                             link: Optional[LinkProfile] = None) -> H323Terminal:
        if self.gatekeeper is None:
            raise RuntimeError("H.323 is disabled in this deployment")
        host = self.new_host(f"{alias}-host", link)
        terminal = H323Terminal(host, alias, self.gatekeeper.address)
        terminal.register()
        self.directory.register_user(alias, community="h323")
        return terminal

    def create_venue(self, name: str) -> Venue:
        if self.venue_server is None:
            raise RuntimeError("AccessGrid is disabled in this deployment")
        return self.venue_server.create_venue(name)

    def create_accessgrid_client(self, venue: Venue,
                                 link: Optional[LinkProfile] = None) -> AccessGridClient:
        host = self.new_host(None, link)
        return AccessGridClient(host, venue)

    def bridge_venue(self, venue: Venue, session_id: str) -> AccessGridBridge:
        host = self.new_host(f"ag-bridge-{venue.name}-host")
        bridge = AccessGridBridge(host, venue, self.broker)
        self.sim.run_for(1.0)
        bridge.connect_session(session_id)
        return bridge

    # ---------------------------------------------------------- streaming

    def start_streaming(
        self,
        session: SessionCreated,
        stream: Optional[str] = None,
        profile: TranscodeProfile = REAL_300K,
    ) -> RealProducer:
        """Attach a RealProducer to a session and mount it on Helix."""
        if self.helix is None:
            raise RuntimeError("streaming is disabled in this deployment")
        stream = stream or session.session_id
        host = self.new_host(f"producer-{stream}-host")
        producer = RealProducer(
            host, self.broker, self.helix.ingest_address, stream, profile
        )
        for media in session.media:
            if media.kind in ("audio", "video"):
                producer.consume_topic(media.topic)
        self._producers[stream] = producer
        return producer

    def create_player(self, stream: str, kind: str = "real",
                      link: Optional[LinkProfile] = None) -> RealPlayer:
        if self.helix is None:
            raise RuntimeError("streaming is disabled in this deployment")
        host = self.new_host(None, link)
        player_cls = RealPlayer if kind == "real" else WindowsMediaPlayer
        return player_cls(host, self.helix.rtsp_address, stream)

    # ------------------------------------------------------------- admire

    def connect_admire(self, session_id: str) -> AdmireConnector:
        if self.admire_connector is None:
            raise RuntimeError("Admire is disabled in this deployment")
        self.admire_connector.connect_session(session_id)
        return self.admire_connector
