"""SIP registrar: REGISTER handling and location bindings.

The paper's SIP servers include "a SIP Proxy, SIP Registrar and SIP
Gateway".  The registrar stores ``sip:user@domain -> contact address``
bindings with expirations; the proxy consults it for routing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.sip.message import SipRequest, parse_name_addr, parse_uri, response_for
from repro.sip.transaction import ServerTransaction, SipEndpoint

_log = logging.getLogger(__name__)

DEFAULT_EXPIRES_S = 3600.0


@dataclass
class Binding:
    contact: Address
    expires_at: float


class LocationService:
    """The binding table, shared between registrar and proxy."""

    def __init__(self) -> None:
        self._bindings: Dict[str, Binding] = {}

    def bind(self, uri: str, contact: Address, expires_at: float) -> None:
        self._bindings[uri] = Binding(contact, expires_at)

    def unbind(self, uri: str) -> None:
        self._bindings.pop(uri, None)

    def lookup(self, uri: str, now: float) -> Optional[Address]:
        binding = self._bindings.get(uri)
        if binding is None:
            return None
        if binding.expires_at < now:
            del self._bindings[uri]
            return None
        return binding.contact


class SipRegistrar(SipEndpoint):
    """Standalone registrar endpoint (often co-hosted with the proxy)."""

    def __init__(
        self,
        host: Host,
        port: int = 5070,
        location: Optional[LocationService] = None,
    ):
        super().__init__(host, port)
        self.location = location if location is not None else LocationService()
        self.registrations = 0
        self.swallowed_errors = 0
        self.metrics = MetricsRegistry()
        self.metrics.expose("registrations", lambda: self.registrations)
        self.metrics.expose("swallowed_errors", lambda: self.swallowed_errors)

    def on_request(
        self,
        request: SipRequest,
        source: Address,
        transaction: Optional[ServerTransaction],
    ) -> None:
        if request.method != "REGISTER" or transaction is None:
            if transaction is not None:
                transaction.respond(
                    response_for(request, 405, "Method Not Allowed")
                )
            return
        aor, _tag = parse_name_addr(request.get("To") or "")
        contact_raw = request.get("Contact")
        if not aor or contact_raw is None:
            transaction.respond(response_for(request, 400, "Bad Request"))
            return
        try:
            parse_uri(aor)
        except Exception as exc:
            self.swallowed_errors += 1
            _log.debug(
                "registrar rejected unparseable AoR %r (%s)",
                aor, type(exc).__name__,
            )
            transaction.respond(response_for(request, 400, "Bad Request"))
            return
        expires = float(request.get("Expires", str(DEFAULT_EXPIRES_S)) or 0)
        host_part, _, port_part = contact_raw.strip("<>").partition(":")
        contact = Address(host_part, int(port_part or 5060))
        if expires <= 0:
            self.location.unbind(aor)
        else:
            self.location.bind(aor, contact, self.sim.now + expires)
            self.registrations += 1
        ok = response_for(request, 200, "OK")
        ok.set("Contact", contact_raw)
        ok.set("Expires", str(int(expires)))
        transaction.respond(ok)
