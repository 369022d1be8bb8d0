"""SOAP service container.

Hosts one or more named services on a TCP port; each inbound envelope is
parsed from XML, validated against the service's WSDL, dispatched to the
registered handler, and answered with a response or fault envelope.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.tcp import TcpConnection, TcpListener
from repro.soap.envelope import SoapEnvelope, SoapFault, parse_envelope
from repro.soap.wsdl import WsdlDocument, WsdlError

_log = logging.getLogger(__name__)

#: Handler signature: handler(**params) -> dict result body, or a
#: :class:`PendingResult` for asynchronous completion.
OperationHandler = Callable[..., Dict[str, Any]]

SOAP_PORT = 8080

#: CPU cost of parsing + dispatching one envelope.
SOAP_DISPATCH_COST_S = 300e-6


class PendingResult:
    """Returned by a handler that completes asynchronously.

    The container holds the request open; calling :meth:`resolve` (or
    :meth:`fail`) sends the response envelope.  This is how the XGSP Web
    Server bridges synchronous SOAP calls onto broker signaling.
    """

    def __init__(self) -> None:
        self._callback: Optional[Callable[[Optional[Dict[str, Any]], Optional[SoapFault]], None]] = None
        self._done = False
        self._result: Optional[Dict[str, Any]] = None
        self._fault: Optional[SoapFault] = None

    def resolve(self, result: Optional[Dict[str, Any]] = None) -> None:
        if self._done:
            return
        self._done = True
        self._result = result or {}
        if self._callback is not None:
            self._callback(self._result, None)

    def fail(self, fault: SoapFault) -> None:
        if self._done:
            return
        self._done = True
        self._fault = fault
        if self._callback is not None:
            self._callback(None, fault)

    def _attach(self, callback) -> None:
        self._callback = callback
        if self._done:
            callback(self._result, self._fault)


class SoapService:
    """A container hosting named services with WSDL-validated dispatch."""

    def __init__(self, host: Host, port: int = SOAP_PORT,
                 metrics: Optional[MetricsRegistry] = None):
        self.host = host
        self.sim = host.sim
        self._listener = TcpListener(host, port, on_connection=self._on_connection)
        self._services: Dict[str, Tuple[WsdlDocument, Dict[str, OperationHandler]]] = {}
        self.requests_served = 0
        self.faults_returned = 0
        self.swallowed_errors = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.expose("requests_served", lambda: self.requests_served)
        self.metrics.expose("faults_returned", lambda: self.faults_returned)
        self.metrics.expose("swallowed_errors", lambda: self.swallowed_errors)

    @property
    def address(self) -> Address:
        return self._listener.local_address

    def register(self, wsdl: WsdlDocument) -> None:
        """Publish a service by its WSDL; handlers attach per operation."""
        if wsdl.service in self._services:
            raise ValueError(f"service {wsdl.service!r} already registered")
        self._services[wsdl.service] = (wsdl, {})

    def bind(self, service: str, operation: str, handler: OperationHandler) -> None:
        """Attach the implementation of one WSDL operation."""
        wsdl, handlers = self._lookup(service)
        wsdl.operation(operation)  # raises WsdlError if not declared
        handlers[operation] = handler

    def wsdl(self, service: str) -> WsdlDocument:
        return self._lookup(service)[0]

    def service_names(self):
        return sorted(self._services)

    def _lookup(self, service: str) -> Tuple[WsdlDocument, Dict[str, OperationHandler]]:
        try:
            return self._services[service]
        except KeyError:
            raise KeyError(f"unknown service {service!r}") from None

    # ----------------------------------------------------------- plumbing

    def _on_connection(self, connection: TcpConnection) -> None:
        connection.on_message = self._on_message

    def _on_message(self, payload: Any, size: int, connection: TcpConnection) -> None:
        self.host.cpu.execute(
            SOAP_DISPATCH_COST_S, self._handle, payload, connection
        )

    def _handle(self, payload: Any, connection: TcpConnection) -> None:
        try:
            envelope = parse_envelope(payload)
        except Exception as exc:
            # Not a SOAP envelope: counted drop, never a silent one.
            self.swallowed_errors += 1
            _log.debug(
                "SOAP service dropped unparseable payload (%s)",
                type(exc).__name__,
            )
            return
        if envelope.kind != "request":
            return
        reply = self._dispatch(envelope, connection)
        if reply is not None and connection.established:
            connection.send(*reply.to_wire())

    def _dispatch(
        self, envelope: SoapEnvelope, connection: TcpConnection
    ) -> Optional[SoapEnvelope]:
        try:
            entry = self._services.get(envelope.service)
            if entry is None:
                raise SoapFault("Client.UnknownService", envelope.service)
            wsdl, handlers = entry
            try:
                wsdl.validate_call(envelope.operation, envelope.body)
            except WsdlError as exc:
                raise SoapFault("Client.BadCall", str(exc)) from exc
            handler = handlers.get(envelope.operation)
            if handler is None:
                raise SoapFault("Server.NotImplemented", envelope.operation)
            result = handler(**envelope.body)
            if isinstance(result, PendingResult):
                result._attach(
                    lambda body, fault: self._complete_async(
                        envelope, connection, body, fault
                    )
                )
                return None
            if result is None:
                result = {}
            self.requests_served += 1
            return SoapEnvelope(
                kind="response",
                service=envelope.service,
                operation=envelope.operation,
                message_id=envelope.message_id,
                body=result,
            )
        except SoapFault as fault:
            self.faults_returned += 1
            return SoapEnvelope(
                kind="fault",
                service=envelope.service,
                operation=envelope.operation,
                message_id=envelope.message_id,
                fault=fault,
            )
        except Exception as exc:  # handler bug -> Server fault
            self.faults_returned += 1
            return SoapEnvelope(
                kind="fault",
                service=envelope.service,
                operation=envelope.operation,
                message_id=envelope.message_id,
                fault=SoapFault("Server.Internal", repr(exc)),
            )

    def _complete_async(
        self,
        envelope: SoapEnvelope,
        connection: TcpConnection,
        body: Optional[Dict[str, Any]],
        fault: Optional[SoapFault],
    ) -> None:
        if fault is not None:
            self.faults_returned += 1
            reply = SoapEnvelope(
                kind="fault",
                service=envelope.service,
                operation=envelope.operation,
                message_id=envelope.message_id,
                fault=fault,
            )
        else:
            self.requests_served += 1
            reply = SoapEnvelope(
                kind="response",
                service=envelope.service,
                operation=envelope.operation,
                message_id=envelope.message_id,
                body=body or {},
            )
        if connection.established:
            connection.send(*reply.to_wire())

    def close(self) -> None:
        self._listener.close()
