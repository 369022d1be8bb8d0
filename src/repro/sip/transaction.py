"""SIP transactions over UDP: retransmission and absorption.

Client transactions retransmit the request on the RFC 3261 timer ladder
(T1 doubling) until a response arrives; server transactions remember the
last response and replay it when a retransmitted request comes in, for
:data:`SERVER_LINGER_S` after their final response.  The shared
:class:`SipEndpoint` owns the socket, parses wire text, and routes
messages to the right transaction.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.simnet.kernel import Timer
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.udp import UdpSocket
from repro.sip.message import (
    SipParseError,
    SipRequest,
    SipResponse,
    new_branch,
    parse_message,
)

SIP_PORT = 5060

#: RFC 3261 T1 and retransmission budget (Timer F is 64*T1 = 32 s, which
#: allows ~10 retransmissions on the doubling ladder capped at 4 s).
T1_S = 0.5
MAX_RETRANSMITS = 10
#: How long a server transaction outlives its final response, replaying
#: it to retransmitted requests: RFC 3261 §17.2.2 Timer J, and RFC 6026
#: Timer L for an INVITE.  A client retransmits for at most Timer F
#: (64*T1) after its first send, so every retransmission lands inside.
SERVER_LINGER_S = 64 * T1_S

ResponseCallback = Callable[[SipResponse], None]


class ClientTransaction:
    """One outgoing request awaiting its response(s)."""

    def __init__(
        self,
        endpoint: "SipEndpoint",
        request: SipRequest,
        destination: Address,
        on_response: Optional[ResponseCallback],
    ):
        self.endpoint = endpoint
        self.request = request
        self.destination = destination
        self.on_response = on_response
        self.branch = request.top_via_branch() or ""
        self.completed = False
        self.timed_out = False
        self.retransmits = 0
        self._timer: Optional[Timer] = None

    def start(self) -> None:
        self._transmit()
        self._arm(T1_S)

    def _transmit(self) -> None:
        self.endpoint._send_text(self.request.render(), self.destination)

    def _arm(self, interval: float) -> None:
        self._timer = self.endpoint.sim.schedule(interval, self._on_timer, interval)

    def _on_timer(self, interval: float) -> None:
        if self.completed:
            return
        if self.retransmits >= MAX_RETRANSMITS:
            self.timed_out = True
            self.completed = True
            self.endpoint._client_done(self)
            if self.on_response is not None:
                # Synthesize the RFC 3261 timeout response.
                timeout = SipResponse(408, "Request Timeout")
                for name, value in self.request.headers():
                    if name.lower() in ("via", "from", "to", "call-id", "cseq"):
                        timeout.add(name, value)
                self.on_response(timeout)
            return
        self.retransmits += 1
        self._transmit()
        self._arm(min(interval * 2.0, 4.0))

    def handle_response(self, response: SipResponse) -> None:
        if self.completed:
            return
        if response.is_final:
            self.completed = True
            if self._timer is not None:
                self._timer.cancel()
            self.endpoint._client_done(self)
        else:
            # Provisional response: stop retransmitting, keep waiting.
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
        if self.on_response is not None:
            self.on_response(response)


class ServerTransaction:
    """One incoming request; absorbs retransmissions."""

    def __init__(
        self,
        endpoint: "SipEndpoint",
        request: SipRequest,
        source: Address,
    ):
        self.endpoint = endpoint
        self.request = request
        self.source = source
        self.key = (request.top_via_branch() or "", request.method)
        self.last_response: Optional[SipResponse] = None

    def respond(self, response: SipResponse) -> None:
        self.last_response = response
        if response.is_final:
            self.endpoint._server_done(self)
        self.endpoint._send_text(response.render(), self.source)

    def replay(self) -> None:
        if self.last_response is not None:
            self.endpoint._send_text(self.last_response.render(), self.source)


class SipEndpoint:
    """Shared SIP socket + transaction matching for UAs, proxies, registrars."""

    def __init__(self, host: Host, port: int = SIP_PORT):
        self.host = host
        self.sim = host.sim
        self.socket = UdpSocket(host, port)
        self.socket.on_receive(self._on_datagram)
        self._client_transactions: Dict[str, ClientTransaction] = {}
        self._server_transactions: Dict[Tuple[str, str], ServerTransaction] = {}
        #: (reap time, transaction) in final-response order, made by the
        #: first final response; reaped lazily as later requests arrive.
        self._lingering: Optional[
            Deque[Tuple[float, ServerTransaction]]
        ] = None
        self.requests_received = 0
        self.responses_received = 0
        self.parse_errors = 0

    @property
    def address(self) -> Address:
        return self.socket.local_address

    # ------------------------------------------------------------ sending

    def send_request(
        self,
        request: SipRequest,
        destination: Address,
        on_response: Optional[ResponseCallback] = None,
    ) -> ClientTransaction:
        """Stamp a Via branch, start a client transaction, transmit."""
        branch = new_branch()
        request.prepend(
            "Via", f"SIP/2.0/UDP {self.address.host}:{self.address.port};branch={branch}"
        )
        transaction = ClientTransaction(self, request, destination, on_response)
        self._client_transactions[branch] = transaction
        transaction.start()
        return transaction

    def _send_text(self, text: str, destination: Address) -> None:
        self.socket.sendto(text, len(text), destination)

    def _client_done(self, transaction: ClientTransaction) -> None:
        self._client_transactions.pop(transaction.branch, None)

    def _server_done(self, transaction: ServerTransaction) -> None:
        """A final response went out: the transaction answers
        retransmissions for :data:`SERVER_LINGER_S` more."""
        if self._lingering is None:
            self._lingering = deque()
        self._lingering.append((self.sim.now + SERVER_LINGER_S, transaction))

    def _reap(self, now: float) -> None:
        """Forget the server transactions whose linger ran out by ``now``
        (no timer: a request arriving is what looks)."""
        lingering = self._lingering
        transactions = self._server_transactions
        while lingering and lingering[0][0] <= now:
            transaction = lingering.popleft()[1]
            if transactions.get(transaction.key) is transaction:
                del transactions[transaction.key]

    # ---------------------------------------------------------- receiving

    def _on_datagram(self, payload, src: Address, datagram) -> None:
        try:
            message = parse_message(payload)
        except (SipParseError, TypeError):
            self.parse_errors += 1
            return
        if isinstance(message, SipResponse):
            self.responses_received += 1
            branch = message.top_via_branch()
            transaction = (
                self._client_transactions.get(branch) if branch else None
            )
            if transaction is not None:
                transaction.handle_response(message)
            else:
                self.on_unmatched_response(message, src)
            return
        self.requests_received += 1
        self._reap(self.sim.now)
        request: SipRequest = message
        if request.method == "ACK":
            # ACK never creates a transaction.
            self.on_request(request, src, None)
            return
        key = (request.top_via_branch() or "", request.method)
        existing = self._server_transactions.get(key)
        if existing is not None:
            existing.replay()
            return
        transaction = ServerTransaction(self, request, src)
        self._server_transactions[key] = transaction
        self.on_request(request, src, transaction)

    # ------------------------------------------------------------- hooks

    def on_request(
        self,
        request: SipRequest,
        source: Address,
        transaction: Optional[ServerTransaction],
    ) -> None:  # pragma: no cover - overridden
        """Subclasses implement request handling."""

    def on_unmatched_response(self, response: SipResponse, source: Address) -> None:
        """Subclasses may forward (proxies) or ignore stray responses."""

    def close(self) -> None:
        self.socket.close()
