"""Stateful SIP proxy.

Routes requests for its domain to registered contacts (via the shared
:class:`~repro.sip.registrar.LocationService`), and hands designated URIs
(conference bridges, chat rooms) to registered application handlers —
that is how the SIP gateway and the chat-room service attach to the
proxy.  A routed request goes on through a client transaction of the
proxy's own, which retransmits it, under the proxy's Via; its responses
pop that Via and come back through the request's server transaction,
which answers the upstream's retransmissions.
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
    new_branch,
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
        self._forward_request(request, contact, transaction)

    def _forward_request(
        self,
        request: SipRequest,
        contact: Address,
        transaction: Optional[ServerTransaction],
    ) -> None:
        """Relay toward ``contact`` through a client transaction of our
        own, so a lost copy is retransmitted on its Timer A/E (RFC 3261
        §16.6 step 10, §17.1); its responses go upstream through the
        request's server transaction, which answers the upstream's
        retransmissions with the last of them.  An ACK has no
        transaction: it is relayed once, under our Via."""
        self.forwarded_requests += 1
        forwarded = SipRequest(
            request.method, request.uri, request.headers(), request.body
        )
        if transaction is None:
            forwarded.prepend("Via", f"{self._via};branch={new_branch()}")
            self._send_text(forwarded.render(), contact)
            return
        self.send_request(
            forwarded, contact,
            lambda response: self._relay(response, transaction),
        )

    def _relay(self, response: SipResponse, transaction: ServerTransaction) -> None:
        """Pop our Via and answer upstream (a timeout's 408 included)."""
        response.remove_first("Via")
        if response.get("Via") is None:
            return
        self.forwarded_responses += 1
        transaction.respond(response)

    def on_unmatched_response(self, response: SipResponse, source: Address) -> None:
        """A response under our Via that no client transaction takes (a
        retransmitted 2xx after the transaction ended): pop our Via and
        relay it toward the previous hop, statelessly (RFC 3261 §16.7)."""
        top = response.get("Via")
        if top is None or not top.startswith(self._via + ";"):
            return
        response.remove_first("Via")
        next_via = response.get("Via")
        if next_via is None:
            return
        self.forwarded_responses += 1
        hop = next_via.split(" ", 1)[1].split(";")[0]
        host, _, port = hop.partition(":")
        self._send_text(response.render(), Address(host, int(port or SIP_PORT)))
