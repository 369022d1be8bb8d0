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

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.broker.broker import Broker
from repro.broker.client import Failover
from repro.broker.rtp_proxy import RtpProxy
from repro.obs.metrics import SIGNALING_BUCKETS_S, MetricsRegistry
from repro.obs.trace import Tracer
from repro.core.xgsp.client import SIGNALING_RETRIES, XgspClient
from repro.core.xgsp.messages import (
    JoinAccepted,
    JoinRejected,
    LeaveSession,
)
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


@dataclass
class _GatewayLeg:
    """Media/session state for one SIP participant in one session."""

    call_id: str
    session_id: str
    participant: str
    proxy: RtpProxy
    ingress: Dict[str, Address] = field(default_factory=dict)


class SipXgspGateway:
    """Attached to a SIP proxy; owns the ``conf-*`` URIs of its domain."""

    def __init__(self, proxy: SipProxy, broker: Broker,
                 gateway_id: str = "sip-gateway",
                 failover: Optional[Failover] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.proxy = proxy
        self.broker = broker
        self.sim = proxy.sim
        self.gateway_id = gateway_id
        #: Signaling and every per-call RTP proxy leg ride out broker
        #: loss with this one setting.
        self.failover = failover
        # Retried joins keep their request id, so a session-server
        # failover mid-INVITE resolves via duplicate suppression rather
        # than a SIP-level timeout (DESIGN.md §5d).
        self.xgsp = XgspClient(
            proxy.host, broker, gateway_id,
            failover=failover, max_retries=SIGNALING_RETRIES,
        )
        self.xgsp.broker_client.on_failover = self._on_broker_failover
        self._legs: Dict[str, _GatewayLeg] = {}  # SIP Call-Id -> leg
        self.joins_accepted = 0
        self.joins_rejected = 0
        self.failovers = 0
        # Observability: the tutorial's operational metrics — join
        # latency (INVITE -> 200 OK, i.e. signaling + XGSP round trip)
        # and join -> first outbound media.  Legs' RTP proxies share the
        # gateway tracer so media ingress hops are stamped per proxy.
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.join_latency = self.metrics.histogram(
            "join_latency_s", SIGNALING_BUCKETS_S
        )
        self.join_to_first_media = self.metrics.histogram(
            "join_to_first_media_s", SIGNALING_BUCKETS_S
        )
        self.metrics.expose("joins_accepted", lambda: self.joins_accepted)
        self.metrics.expose("joins_rejected", lambda: self.joins_rejected)
        self.metrics.expose("failovers", lambda: self.failovers)
        self.metrics.expose("legs", lambda: len(self._legs))
        proxy.register_app_prefix(CONFERENCE_PREFIX, self._on_request)

    def _on_broker_failover(self, _client, broker: Broker) -> None:
        """Signaling moved to a new broker: new legs attach there too.
        Existing legs' RTP proxies run their own failover clients."""
        self.broker = broker
        self.failovers += 1

    def legs(self) -> int:
        return len(self._legs)

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
                self.joins_rejected += 1
                transaction.respond(response_for(request, 404, "No Such Session"))
                return
            if not isinstance(response, JoinAccepted):
                transaction.respond(response_for(request, 500, "Signaling Error"))
                return
            self.joins_accepted += 1
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
        # Per-participant RTP proxy leg, deployed next to the broker.
        proxy = RtpProxy(
            self.broker.host, self.broker,
            proxy_id=f"sip-{call_id}",
            failover=self.failover,
            tracer=self.tracer,
        )
        leg = _GatewayLeg(
            call_id=call_id,
            session_id=accepted.session_id,
            participant=accepted.participant,
            proxy=proxy,
        )
        for media in accepted.media:
            # Endpoint -> broker: the SDP answer points here.
            leg.ingress[media.kind] = proxy.bridge_inbound(media.topic)
            # Broker -> endpoint: toward the offer's RTP address.
            if offer.has_media(media.kind):
                line = offer.media_for(media.kind)
                proxy.bridge_outbound(
                    media.topic, Address(offer.connection_host, line.port)
                )
        self._legs[call_id] = leg
        answer = sdp_answer_for_join(accepted, leg.ingress, origin=self.gateway_id)
        ok = response_for(request, 200, "OK", body=answer.render())
        ok.set("To", f"{request.get('To')};{new_tag()}")
        ok.set("Contact", f"<{self.proxy.address.host}:{self.proxy.address.port}>")
        ok.set("Content-Type", "application/sdp")
        transaction.respond(ok)
        joined_at = self.sim.now
        self.join_latency.observe(joined_at - invited_at)
        proxy.on_first_media = (
            lambda _topic, at: self.join_to_first_media.observe(at - joined_at)
        )

    # ---------------------------------------------------------------- BYE

    def _on_bye(
        self, request: SipRequest, transaction: Optional[ServerTransaction]
    ) -> None:
        leg = self._legs.pop(request.call_id or "", None)
        if transaction is not None:
            transaction.respond(response_for(request, 200, "OK"))
        if leg is None:
            return
        self.xgsp.request(
            LeaveSession(session_id=leg.session_id, participant=leg.participant)
        )
        leg.proxy.close()
