"""Asynchronous SOAP client.

Maintains one persistent TCP connection per remote container; requests
carry message ids and the matching response (or fault) fires the caller's
callback.  Optionally validates calls client-side against a WSDL document
(the "interface component" generated from WSDL-CI in the paper).
"""

from __future__ import annotations

import itertools
import logging
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.tcp import TcpConnection, tcp_connect
from repro.soap.envelope import SoapEnvelope, SoapFault, parse_envelope
from repro.soap.wsdl import WsdlDocument

_log = logging.getLogger(__name__)

ResultCallback = Callable[[Dict[str, Any]], None]
FaultCallback = Callable[[SoapFault], None]

_message_ids = itertools.count(1)


class _ContainerLink:
    """One persistent connection to a SOAP container."""

    def __init__(self, host: Host, address: Address):
        self.ready = False
        self.queue: list = []
        self.connection: Optional[TcpConnection] = None
        self.host = host
        self.address = address

    def start(self, on_message) -> None:
        def established(conn: TcpConnection) -> None:
            self.ready = True
            for text, size in self.queue:
                conn.send(text, size)
            self.queue.clear()

        self.connection = tcp_connect(
            self.host, self.address,
            on_established=established,
            on_message=on_message,
        )

    def send(self, text: str, size: int) -> None:
        if self.ready and self.connection is not None:
            self.connection.send(text, size)
        else:
            self.queue.append((text, size))


class SoapClient:
    """Issues SOAP requests and routes responses to callbacks."""

    def __init__(self, host: Host, metrics: Optional[MetricsRegistry] = None):
        self.host = host
        self.sim = host.sim
        self._links: Dict[Address, _ContainerLink] = {}
        self._pending: Dict[int, Tuple[Optional[ResultCallback], Optional[FaultCallback]]] = {}
        self._wsdls: Dict[str, WsdlDocument] = {}
        self.requests_sent = 0
        self.responses_received = 0
        self.faults_received = 0
        self.swallowed_errors = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.expose("requests_sent", lambda: self.requests_sent)
        self.metrics.expose(
            "responses_received", lambda: self.responses_received
        )
        self.metrics.expose("faults_received", lambda: self.faults_received)
        self.metrics.expose("swallowed_errors", lambda: self.swallowed_errors)

    def import_wsdl(self, wsdl: WsdlDocument) -> None:
        """Enable client-side call validation for a service."""
        self._wsdls[wsdl.service] = wsdl

    def invoke(
        self,
        address: Address,
        service: str,
        operation: str,
        params: Optional[Dict[str, Any]] = None,
        on_result: Optional[ResultCallback] = None,
        on_fault: Optional[FaultCallback] = None,
    ) -> int:
        """Send a request; returns the message id."""
        params = dict(params or {})
        wsdl = self._wsdls.get(service)
        if wsdl is not None:
            wsdl.validate_call(operation, params)
        message_id = next(_message_ids)
        envelope = SoapEnvelope(
            kind="request",
            service=service,
            operation=operation,
            message_id=message_id,
            body=params,
        )
        self._pending[message_id] = (on_result, on_fault)
        link = self._links.get(address)
        if link is None:
            link = _ContainerLink(self.host, address)
            self._links[address] = link
            link.start(self._on_message)
        self.requests_sent += 1
        link.send(*envelope.to_wire())
        return message_id

    def _on_message(self, payload: Any, size: int, connection: TcpConnection) -> None:
        try:
            envelope = parse_envelope(payload)
        except Exception as exc:
            self.swallowed_errors += 1
            _log.debug(
                "SOAP client dropped unparseable message (%s)",
                type(exc).__name__,
            )
            return
        callbacks = self._pending.pop(envelope.message_id, None)
        if callbacks is None:
            return
        on_result, on_fault = callbacks
        if envelope.kind == "fault" and envelope.fault is not None:
            self.faults_received += 1
            if on_fault is not None:
                on_fault(envelope.fault)
        elif envelope.kind == "response":
            self.responses_received += 1
            if on_result is not None:
                on_result(envelope.body)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        for link in self._links.values():
            if link.connection is not None:
                link.connection.close()
        self._links.clear()
