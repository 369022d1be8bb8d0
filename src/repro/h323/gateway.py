"""The H.323 Gateway: H.323 endpoints ↔ XGSP sessions.

"The H.323 Servers ... translate H.225 and H.245 signaling from these
endpoints into XGSP signaling messages, and redirect their RTP channels
to the NaradaBrokering servers" (Section 3.2).

The gateway is the called endpoint for every ``conf-<session-id>`` alias
(it registers an alias resolver with the gatekeeper).  On Setup it defers
the H.225 answer, performs the XGSP join, and only then proceeds to
Connect and H.245 — so capability selection can honour the session's
media kinds.  Logical channels terminate on a per-call RTP proxy next to
the broker: the address we put in our OLC ack (endpoint → topic) and the
outbound bridge toward the address the endpoint acks back (topic →
endpoint).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.broker.broker import Broker
from repro.broker.client import Failover
from repro.broker.rtp_proxy import RtpProxy
from repro.obs.metrics import SIGNALING_BUCKETS_S, MetricsRegistry
from repro.core.xgsp.client import SIGNALING_RETRIES, XgspClient
from repro.core.xgsp.messages import JoinAccepted, LeaveSession
from repro.core.xgsp.translation import (
    CONFERENCE_PREFIX,
    join_for_h323_setup,
)
from repro.h323.gatekeeper import Gatekeeper
from repro.h323.pdu import MediaCapability, Setup
from repro.h323.terminal import H323Call, H323Terminal
from repro.simnet.node import Host
from repro.simnet.packet import Address


class H323XgspGateway(H323Terminal):
    """The XGSP-side H.323 endpoint for all conference aliases."""

    def __init__(
        self,
        host: Host,
        gatekeeper: Gatekeeper,
        broker: Broker,
        gateway_id: str = "h323-gateway",
        h225_port: int = 1740,
        failover: Optional[Failover] = None,
    ):
        super().__init__(
            host,
            alias=gateway_id,
            gatekeeper=gatekeeper.address,
            capabilities=[
                MediaCapability.default_audio(),
                MediaCapability.default_video(),
            ],
            h225_port=h225_port,
        )
        self.broker = broker
        self.gateway_id = gateway_id
        #: Signaling and every per-call RTP proxy leg ride out broker
        #: loss with this one setting.
        self.failover = failover
        # Same idempotent-retry posture as the SIP gateway: a retried
        # join keeps its request id across a session-server failover.
        self.xgsp = XgspClient(
            host, broker, gateway_id,
            failover=failover, max_retries=SIGNALING_RETRIES,
        )
        self.xgsp.broker_client.on_failover = self._on_broker_failover
        # call_id -> (JoinAccepted, RtpProxy)
        self._joins: Dict[str, Tuple[JoinAccepted, RtpProxy]] = {}
        self.joins_accepted = 0
        self.joins_rejected = 0
        self.failovers = 0
        # Observability: Setup -> Connect join latency and Connect ->
        # first outbound media, mirroring the SIP gateway's histograms.
        self.metrics = MetricsRegistry()
        self.join_latency = self.metrics.histogram(
            "join_latency_s", SIGNALING_BUCKETS_S
        )
        self.join_to_first_media = self.metrics.histogram(
            "join_to_first_media_s", SIGNALING_BUCKETS_S
        )
        self.metrics.expose("joins_accepted", lambda: self.joins_accepted)
        self.metrics.expose("joins_rejected", lambda: self.joins_rejected)
        self.metrics.expose("failovers", lambda: self.failovers)
        self._setup_at: Dict[str, float] = {}
        self.on_incoming_call = self._on_conference_setup
        gatekeeper.add_alias_resolver(self._resolve_alias)

    def _on_broker_failover(self, _client, broker: Broker) -> None:
        """Signaling moved to a new broker: new call legs attach there.
        Existing legs' RTP proxies run their own failover clients."""
        self.broker = broker
        self.failovers += 1

    def _resolve_alias(self, alias: str) -> Optional[Address]:
        if alias.startswith(CONFERENCE_PREFIX):
            return self.call_signaling_address
        return None

    # ---------------------------------------------------------- signaling

    def _on_conference_setup(self, setup: Setup):
        join = join_for_h323_setup(setup)
        if join is None:
            return False
        call_id = setup.call_id
        self._setup_at[call_id] = self.host.sim.now

        def on_join_response(response) -> None:
            call = self._calls.get(call_id)
            if call is None:
                return  # caller hung up meanwhile
            if isinstance(response, JoinAccepted):
                self.joins_accepted += 1
                proxy = RtpProxy(
                    self.broker.host, self.broker, proxy_id=f"h323-{call_id}",
                    failover=self.failover,
                )
                self._joins[call_id] = (response, proxy)
                call.on_connected = self._on_call_connected
                call.on_released = self._on_call_released
                self.accept_incoming(call)
            else:
                self.joins_rejected += 1
                self._setup_at.pop(call_id, None)
                self.reject_incoming(call, reason="xgsp-join-rejected")

        self.xgsp.request(
            join,
            on_response=on_join_response,
            on_timeout=lambda: self._on_join_timeout(call_id),
        )
        return "defer"

    def _on_join_timeout(self, call_id: str) -> None:
        self._setup_at.pop(call_id, None)
        call = self._calls.get(call_id)
        if call is not None:
            self.reject_incoming(call, reason="xgsp-timeout")

    # ------------------------------------------------------------ media

    def _session_media(self, call: H323Call):
        entry = self._joins.get(call.call_id)
        if entry is None:
            return {}
        accepted, _proxy = entry
        return {media.kind: media for media in accepted.media}

    def media_address_for(self, call: H323Call, media: str) -> Address:
        """Our RTP receive address for one channel = a proxy ingress that
        republishes onto the session's media topic."""
        entry = self._joins.get(call.call_id)
        if entry is None:
            return super().media_address_for(call, media)
        accepted, proxy = entry
        session_media = self._session_media(call).get(media)
        if session_media is None:
            return super().media_address_for(call, media)
        return proxy.bridge_inbound(session_media.topic)

    def capabilities_for_call(self, call: H323Call):
        # Advertise only the XGSP session's media kinds, so endpoints do
        # not open channels the session cannot carry.
        kinds = set(self._session_media(call))
        return [
            capability
            for capability in super().capabilities_for_call(call)
            if capability.media in kinds
        ]

    def _on_call_connected(self, call: H323Call) -> None:
        """All OLCs acked: bridge session topics toward the endpoint."""
        entry = self._joins.get(call.call_id)
        if entry is None:
            return
        accepted, proxy = entry
        connected_at = self.host.sim.now
        setup_at = self._setup_at.pop(call.call_id, None)
        if setup_at is not None:
            self.join_latency.observe(connected_at - setup_at)
        proxy.on_first_media = (
            lambda _topic, at: self.join_to_first_media.observe(
                at - connected_at
            )
        )
        for media in accepted.media:
            destination = call.remote_media_address(media.kind)
            if destination is not None:
                proxy.bridge_outbound(media.topic, destination)

    # ----------------------------------------------------------- teardown

    def _on_call_released(self, call: H323Call) -> None:
        self._setup_at.pop(call.call_id, None)
        entry = self._joins.pop(call.call_id, None)
        if entry is None:
            return
        accepted, proxy = entry
        self.xgsp.request(
            LeaveSession(
                session_id=accepted.session_id, participant=accepted.participant
            )
        )
        proxy.close()
