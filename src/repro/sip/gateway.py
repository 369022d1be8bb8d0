"""The SIP Gateway: SIP endpoints ↔ XGSP sessions.

"The SIP Servers including a SIP Proxy, SIP Registrar and SIP Gateway
create a similar SIP domain for SIP terminals and perform SIP
translation" (Section 3.2).

An XGSP session ``session-N`` is reachable at ``sip:conf-session-N@dom``.
When a SIP endpoint INVITEs that URI:

1. the INVITE is translated to an XGSP :class:`JoinSession` (community
   ``sip``) and sent to the session server over the broker;
2. on JoinAccepted, a per-participant RTP proxy leg is created next to
   the broker: an *inbound* bridge per media kind (the endpoint's RTP is
   redirected there by the SDP answer) and an *outbound* bridge toward
   the RTP address in the endpoint's SDP offer;
3. the 200 OK carries the SDP answer pointing at the proxy ports.

BYE leaves the XGSP session and tears the proxy leg down.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.broker.broker import Broker
from repro.broker.client import Failover
from repro.core.xgsp.bridge import XgspBridge
from repro.core.xgsp.messages import JoinAccepted, JoinRejected
from repro.core.xgsp.translation import (
    CONFERENCE_PREFIX,
    join_for_sip_invite,
    sdp_answer_for_join,
)
from repro.simnet.packet import Address
from repro.sip.message import SipRequest, new_tag, response_for
from repro.sip.proxy import SipProxy
from repro.sip.sdp import SessionDescription, parse_sdp
from repro.sip.transaction import ServerTransaction


class SipXgspGateway:
    """Attached to a SIP proxy; owns the ``conf-*`` URIs of its domain.

    Call legs are keyed by SIP Call-Id in :attr:`bridge`.
    """

    def __init__(self, proxy: SipProxy, broker: Broker,
                 gateway_id: str = "sip-gateway",
                 failover: Optional[Failover] = None):
        self.proxy = proxy
        self.sim = proxy.sim
        self.gateway_id = gateway_id
        self.bridge = XgspBridge(proxy.host, broker, gateway_id, failover)
        self.xgsp = self.bridge.xgsp
        proxy.register_app_prefix(CONFERENCE_PREFIX, self._on_request)

    # ------------------------------------------------------------ routing

    def _on_request(
        self,
        request: SipRequest,
        source: Address,
        transaction: Optional[ServerTransaction],
    ) -> bool:
        if request.method == "INVITE":
            self._on_invite(request, transaction)
            return True
        if request.method == "BYE":
            self._on_bye(request, transaction)
            return True
        if request.method == "ACK":
            return True  # dialog-level, nothing to do
        if transaction is not None:
            transaction.respond(response_for(request, 405, "Method Not Allowed"))
        return True

    # ------------------------------------------------------------- INVITE

    def _on_invite(
        self, request: SipRequest, transaction: Optional[ServerTransaction]
    ) -> None:
        if transaction is None:
            return
        offer = parse_sdp(request.body) if request.body else None
        join = join_for_sip_invite(request, offer)
        if join is None or offer is None:
            transaction.respond(response_for(request, 400, "Bad Request"))
            return
        call_id = request.call_id or ""
        invited_at = self.sim.now

        def on_join_response(response) -> None:
            if isinstance(response, JoinRejected):
                self.bridge.joins_rejected += 1
                transaction.respond(response_for(request, 404, "No Such Session"))
                return
            if not isinstance(response, JoinAccepted):
                transaction.respond(response_for(request, 500, "Signaling Error"))
                return
            self._complete_invite(
                request, transaction, offer, response, call_id, invited_at
            )

        self.xgsp.request(
            join,
            on_response=on_join_response,
            on_timeout=lambda: transaction.respond(
                response_for(request, 504, "XGSP Timeout")
            ),
        )

    def _complete_invite(
        self,
        request: SipRequest,
        transaction: ServerTransaction,
        offer: SessionDescription,
        accepted: JoinAccepted,
        call_id: str,
        invited_at: float,
    ) -> None:
        leg = self.bridge.open_leg(
            call_id, accepted, f"sip-{call_id}", invited_at
        )
        ingress: Dict[str, Address] = {}
        for media in accepted.media:
            # Endpoint -> broker: the SDP answer points here.
            ingress[media.kind] = leg.proxy.bridge_inbound(media.topic)
            # Broker -> endpoint: toward the offer's RTP address.
            if offer.has_media(media.kind):
                line = offer.media_for(media.kind)
                leg.proxy.bridge_outbound(
                    media.topic, Address(offer.connection_host, line.port)
                )
        answer = sdp_answer_for_join(accepted, ingress, origin=self.gateway_id)
        ok = response_for(request, 200, "OK", body=answer.render())
        ok.set("To", f"{request.get('To')};{new_tag()}")
        ok.set("Contact", f"<{self.proxy.address.host}:{self.proxy.address.port}>")
        ok.set("Content-Type", "application/sdp")
        transaction.respond(ok)
        self.bridge.joined(leg)

    # ---------------------------------------------------------------- BYE

    def _on_bye(
        self, request: SipRequest, transaction: Optional[ServerTransaction]
    ) -> None:
        if transaction is not None:
            transaction.respond(response_for(request, 200, "OK"))
        self.bridge.close_leg(request.call_id or "")
