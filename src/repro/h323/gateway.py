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

from typing import Optional

from repro.broker.broker import Broker
from repro.broker.client import Failover
from repro.core.xgsp.bridge import XgspBridge
from repro.core.xgsp.messages import JoinAccepted
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
    """The XGSP-side H.323 endpoint for all conference aliases.

    Call legs are keyed by H.225 call id in :attr:`bridge`.
    """

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
        self.bridge = XgspBridge(host, broker, gateway_id, failover)
        self.xgsp = self.bridge.xgsp
        self.on_incoming_call = self._on_conference_setup
        gatekeeper.add_alias_resolver(self._resolve_alias)

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
        setup_at = self.host.sim.now

        def on_join_response(response) -> None:
            call = self._calls.get(call_id)
            if call is None:
                return  # caller hung up meanwhile
            if isinstance(response, JoinAccepted):
                self.bridge.open_leg(
                    call_id, response, f"h323-{call_id}", setup_at
                )
                call.on_connected = self._on_call_connected
                call.on_released = self._on_call_released
                self.accept_incoming(call)
            else:
                self.bridge.joins_rejected += 1
                self.reject_incoming(call, reason="xgsp-join-rejected")

        self.xgsp.request(
            join,
            on_response=on_join_response,
            on_timeout=lambda: self._on_join_timeout(call_id),
        )
        return "defer"

    def _on_join_timeout(self, call_id: str) -> None:
        call = self._calls.get(call_id)
        if call is not None:
            self.reject_incoming(call, reason="xgsp-timeout")

    # ------------------------------------------------------------ media

    def _session_media(self, call: H323Call):
        leg = self.bridge.legs.get(call.call_id)
        if leg is None:
            return {}
        return {media.kind: media for media in leg.accepted.media}

    def media_address_for(self, call: H323Call, media: str) -> Address:
        """Our RTP receive address for one channel = a proxy ingress that
        republishes onto the session's media topic."""
        leg = self.bridge.legs.get(call.call_id)
        if leg is None:
            return super().media_address_for(call, media)
        session_media = self._session_media(call).get(media)
        if session_media is None:
            return super().media_address_for(call, media)
        return leg.proxy.bridge_inbound(session_media.topic)

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
        leg = self.bridge.legs.get(call.call_id)
        if leg is None:
            return
        self.bridge.joined(leg)
        for media in leg.accepted.media:
            destination = call.remote_media_address(media.kind)
            if destination is not None:
                leg.proxy.bridge_outbound(media.topic, destination)

    # ----------------------------------------------------------- teardown

    def _on_call_released(self, call: H323Call) -> None:
        self.bridge.close_leg(call.call_id)
