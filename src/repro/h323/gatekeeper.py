"""H.323 gatekeeper: discovery, registration, admission, bandwidth.

The gatekeeper owns an administration domain ("zone"): endpoints discover
it (GRQ), register aliases with their call signaling addresses (RRQ), and
must ask admission for every call (ARQ) — which is also where the zone's
bandwidth budget is enforced and where calls are routed (the ACF returns
the callee's — or the gateway's — call signaling address).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.h323.pdu import (
    RAS_PORT,
    AdmissionConfirm,
    AdmissionReject,
    AdmissionRequest,
    BandwidthConfirm,
    BandwidthReject,
    BandwidthRequest,
    DisengageConfirm,
    DisengageRequest,
    GatekeeperConfirm,
    GatekeeperRequest,
    RegistrationConfirm,
    RegistrationReject,
    RegistrationRequest,
)
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.udp import UdpSocket

#: Alias resolver hook: returns a call-signaling address for aliases the
#: registration table does not know (e.g. conference aliases owned by the
#: XGSP gateway).  Returns None to reject.
AliasResolver = Callable[[str], Optional[Address]]


@dataclass
class _Registration:
    alias: str
    call_signaling_address: Address


@dataclass
class _ActiveCall:
    call_id: str
    bandwidth_bps: float


class Gatekeeper:
    """RAS server for one H.323 zone."""

    def __init__(
        self,
        host: Host,
        gatekeeper_id: str = "gk",
        port: int = RAS_PORT,
        zone_bandwidth_bps: float = 100e6,
    ):
        self.host = host
        self.sim = host.sim
        self.gatekeeper_id = gatekeeper_id
        self.zone_bandwidth_bps = zone_bandwidth_bps
        self.socket = UdpSocket(host, port)
        self.socket.on_receive(self._on_pdu)
        self._registrations: Dict[str, _Registration] = {}
        self._calls: Dict[str, _ActiveCall] = {}
        self._alias_resolvers: list = []
        self.bandwidth_in_use_bps = 0.0
        self.admissions_granted = 0
        self.admissions_rejected = 0

    @property
    def address(self) -> Address:
        return self.socket.local_address

    # ----------------------------------------------------------- queries

    def is_registered(self, alias: str) -> bool:
        return alias in self._registrations

    def signaling_address_for(self, alias: str) -> Optional[Address]:
        registration = self._registrations.get(alias)
        if registration is not None:
            return registration.call_signaling_address
        for resolver in self._alias_resolvers:
            address = resolver(alias)
            if address is not None:
                return address
        return None

    def add_alias_resolver(self, resolver: AliasResolver) -> None:
        """Used by the XGSP gateway to own conference aliases."""
        self._alias_resolvers.append(resolver)

    def active_calls(self) -> int:
        return len(self._calls)

    # ---------------------------------------------------------- handling

    def _on_pdu(self, pdu, src: Address, datagram) -> None:
        if isinstance(pdu, GatekeeperRequest):
            self._reply(GatekeeperConfirm(self.gatekeeper_id), pdu.reply_to)
        elif isinstance(pdu, RegistrationRequest):
            self._on_rrq(pdu)
        elif isinstance(pdu, AdmissionRequest):
            self._on_arq(pdu)
        elif isinstance(pdu, BandwidthRequest):
            self._on_brq(pdu)
        elif isinstance(pdu, DisengageRequest):
            self._on_drq(pdu)

    def _on_rrq(self, pdu: RegistrationRequest) -> None:
        existing = self._registrations.get(pdu.endpoint_alias)
        if (
            existing is not None
            and existing.call_signaling_address != pdu.call_signaling_address
        ):
            self._reply(
                RegistrationReject(pdu.endpoint_alias, "duplicateAlias"),
                pdu.reply_to,
            )
            return
        self._registrations[pdu.endpoint_alias] = _Registration(
            pdu.endpoint_alias, pdu.call_signaling_address
        )
        self._reply(
            RegistrationConfirm(pdu.endpoint_alias, self.gatekeeper_id),
            pdu.reply_to,
        )

    def _on_arq(self, pdu: AdmissionRequest) -> None:
        destination = self.signaling_address_for(pdu.callee_alias)
        if destination is None:
            self.admissions_rejected += 1
            self._reply(
                AdmissionReject(pdu.call_id, "calledPartyNotRegistered"),
                pdu.reply_to,
            )
            return
        if self.bandwidth_in_use_bps + pdu.bandwidth_bps > self.zone_bandwidth_bps:
            self.admissions_rejected += 1
            self._reply(
                AdmissionReject(pdu.call_id, "requestDenied:bandwidth"),
                pdu.reply_to,
            )
            return
        if pdu.call_id not in self._calls:
            self._calls[pdu.call_id] = _ActiveCall(pdu.call_id, pdu.bandwidth_bps)
            self.bandwidth_in_use_bps += pdu.bandwidth_bps
        self.admissions_granted += 1
        self._reply(
            AdmissionConfirm(pdu.call_id, destination, pdu.bandwidth_bps),
            pdu.reply_to,
        )

    def _on_brq(self, pdu: BandwidthRequest) -> None:
        """Mid-call bandwidth change: grant if the zone budget allows."""
        call = self._calls.get(pdu.call_id)
        if call is None:
            self._reply(
                BandwidthReject(pdu.call_id, "unknownCall"), pdu.reply_to
            )
            return
        delta = pdu.bandwidth_bps - call.bandwidth_bps
        if self.bandwidth_in_use_bps + delta > self.zone_bandwidth_bps:
            self._reply(
                BandwidthReject(pdu.call_id, "requestDenied:bandwidth"),
                pdu.reply_to,
            )
            return
        self.bandwidth_in_use_bps += delta
        call.bandwidth_bps = pdu.bandwidth_bps
        self._reply(
            BandwidthConfirm(pdu.call_id, pdu.bandwidth_bps), pdu.reply_to
        )

    def _on_drq(self, pdu: DisengageRequest) -> None:
        call = self._calls.pop(pdu.call_id, None)
        if call is not None:
            self.bandwidth_in_use_bps -= call.bandwidth_bps
        self._reply(DisengageConfirm(pdu.call_id), pdu.reply_to)

    def _reply(self, pdu, destination: Address) -> None:
        self.socket.sendto(pdu, pdu.wire_size, destination)

    def close(self) -> None:
        self.socket.close()
