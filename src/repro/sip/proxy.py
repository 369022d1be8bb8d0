"""Stateful SIP proxy.

Routes requests for its domain to registered contacts (via the shared
:class:`~repro.sip.registrar.LocationService`), stacks/pops Via headers so
responses retrace the path, and hands designated URIs (conference bridges,
chat rooms) to registered application handlers — that is how the SIP
gateway and the chat-room service attach to the proxy.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.sip.message import (
    SipRequest,
    SipResponse,
    parse_uri,
    response_for,
)
from repro.sip.registrar import LocationService
from repro.sip.transaction import SIP_PORT, ServerTransaction, SipEndpoint

_log = logging.getLogger(__name__)

#: Application handler: receives (request, source, transaction); returns
#: True when it consumed the request.
AppHandler = Callable[[SipRequest, Address, Optional[ServerTransaction]], bool]


class SipProxy(SipEndpoint):
    """The domain's proxy (and its request router)."""

    def __init__(
        self,
        host: Host,
        domain: str,
        port: int = SIP_PORT,
        location: Optional[LocationService] = None,
    ):
        super().__init__(host, port)
        self.domain = domain
        self.location = location if location is not None else LocationService()
        self._app_handlers: Dict[str, AppHandler] = {}
        self._prefix_handlers: Dict[str, AppHandler] = {}
        self.forwarded_requests = 0
        self.forwarded_responses = 0
        self.swallowed_errors = 0
        self.metrics = MetricsRegistry()
        self.metrics.expose(
            "forwarded_requests", lambda: self.forwarded_requests
        )
        self.metrics.expose(
            "forwarded_responses", lambda: self.forwarded_responses
        )
        self.metrics.expose("swallowed_errors", lambda: self.swallowed_errors)

    # ------------------------------------------------------- applications

    def register_app(self, user: str, handler: AppHandler) -> None:
        """Attach an application to ``sip:<user>@<domain>``."""
        self._app_handlers[user] = handler

    def register_app_prefix(self, prefix: str, handler: AppHandler) -> None:
        """Attach an application to every user starting with ``prefix``."""
        self._prefix_handlers[prefix] = handler

    # ----------------------------------------------------------- routing

    def on_request(
        self,
        request: SipRequest,
        source: Address,
        transaction: Optional[ServerTransaction],
    ) -> None:
        try:
            user, domain = parse_uri(request.uri)
        except Exception as exc:
            self.swallowed_errors += 1
            _log.debug(
                "proxy %s rejected unparseable URI %r (%s)",
                self.domain, request.uri, type(exc).__name__,
            )
            if transaction is not None:
                transaction.respond(response_for(request, 400, "Bad Request"))
            return
        if domain != self.domain:
            if transaction is not None:
                transaction.respond(
                    response_for(request, 404, "Unknown Domain")
                )
            return
        handler = self._app_handlers.get(user)
        if handler is None:
            for prefix, prefix_handler in self._prefix_handlers.items():
                if user.startswith(prefix):
                    handler = prefix_handler
                    break
        if handler is not None and handler(request, source, transaction):
            return
        contact = self.location.lookup(request.uri, self.sim.now)
        if contact is None:
            if transaction is not None:
                transaction.respond(response_for(request, 404, "Not Found"))
            return
        self._forward_request(request, contact)

    def _forward_request(self, request: SipRequest, contact: Address) -> None:
        """Stack our Via and relay; responses retrace the Via path."""
        self.forwarded_requests += 1
        forwarded = SipRequest(
            request.method, request.uri, request.headers(), request.body
        )
        forwarded.prepend(
            "Via", f"SIP/2.0/UDP {self.address.host}:{self.address.port};proxy"
        )
        self._send_text(forwarded.render(), contact)

    def on_unmatched_response(self, response: SipResponse, source: Address) -> None:
        """Pop our Via and relay toward the previous hop."""
        top = response.get("Via")
        if top is None or ";proxy" not in top:
            return
        response.remove_first("Via")
        next_via = response.get("Via")
        if next_via is None:
            return
        if response.is_final:
            # The relayed request's server transaction ends with it.  The
            # raw CSeq, as a malformed one must not raise out of here.
            method = (response.get("CSeq") or "").partition(" ")[2]
            key = (response.top_via_branch() or "", method)
            transaction = self._server_transactions.get(key)
            if transaction is not None:
                self._server_done(transaction)
        self.forwarded_responses += 1
        hop = next_via.split(" ", 1)[1].split(";")[0]
        host, _, port = hop.partition(":")
        self._send_text(response.render(), Address(host, int(port or SIP_PORT)))
