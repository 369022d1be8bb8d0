"""H.323 terminals: RAS registration, H.225 calls, H.245 channels, media.

Call flow implemented (both roles):

1. RAS: ``register()`` (RRQ/RCF); callers also ask admission (ARQ/ACF),
   which returns the callee's call-signaling address.
2. H.225 over TCP 1720: Setup → CallProceeding → Alerting → Connect,
   where Connect carries the callee's H.245 address.
3. H.245 over a dedicated TCP connection: TerminalCapabilitySet exchange,
   master/slave determination, then OpenLogicalChannel per common media;
   the OLC ack tells the opener where to send RTP.
4. Media: raw RTP over UDP to the address learned in step 3 — exactly the
   channel the paper's gateway redirects to the NaradaBrokering RTP proxy.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.h323.pdu import (
    H225_PORT,
    AdmissionConfirm,
    AdmissionReject,
    AdmissionRequest,
    Alerting,
    BandwidthConfirm,
    BandwidthReject,
    BandwidthRequest,
    CallProceeding,
    CloseLogicalChannel,
    Connect,
    DisengageRequest,
    EndSessionCommand,
    MasterSlaveDetermination,
    MasterSlaveDeterminationAck,
    MediaCapability,
    OpenLogicalChannel,
    OpenLogicalChannelAck,
    RegistrationConfirm,
    RegistrationReject,
    RegistrationRequest,
    ReleaseComplete,
    Setup,
    TerminalCapabilitySet,
    TerminalCapabilitySetAck,
    intersect_capabilities,
    new_call_id,
)
from repro.rtp.packet import RtpPacket
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.tcp import TcpConnection, TcpListener, tcp_connect
from repro.simnet.udp import UdpSocket

_channel_numbers = itertools.count(1)

CallCallback = Callable[["H323Call"], None]
MediaCallback = Callable[["H323Call", RtpPacket], None]
IncomingCallHook = Callable[[Setup], bool]

#: Bandwidth a terminal asks its gatekeeper to admit per call.
CALL_BANDWIDTH_BPS = 664_000.0


class H323Call:
    """State for one call at one terminal."""

    IDLE = "idle"
    ADMISSION = "admission"
    SETUP = "setup"
    RINGING = "ringing"
    H245 = "h245"
    CONNECTED = "connected"
    RELEASED = "released"

    def __init__(self, terminal: "H323Terminal", call_id: str, is_caller: bool,
                 remote_alias: str):
        self.terminal = terminal
        self.call_id = call_id
        self.is_caller = is_caller
        self.remote_alias = remote_alias
        self.state = H323Call.IDLE
        self.signaling: Optional[TcpConnection] = None
        self.h245: Optional[TcpConnection] = None
        self.h245_listener: Optional[TcpListener] = None
        self.remote_capabilities: List[MediaCapability] = []
        self.common_capabilities: List[MediaCapability] = []
        # media kind -> where we send RTP for that kind
        self._send_addresses: Dict[str, Address] = {}
        # channels we opened / they opened
        self.local_channels: Dict[int, OpenLogicalChannel] = {}
        self.remote_channels: Dict[int, OpenLogicalChannel] = {}
        self._tcs_acked = False
        self._pending_olc_acks = 0
        self._olcs_sent = False
        self.on_connected: Optional[CallCallback] = None
        self.on_released: Optional[CallCallback] = None
        self.release_reason: Optional[str] = None

    # ------------------------------------------------------------- media

    def remote_media_address(self, media: str) -> Optional[Address]:
        return self._send_addresses.get(media)

    def send_media(self, media: str, packet: RtpPacket) -> None:
        """Transmit an RTP packet on an open logical channel."""
        destination = self._send_addresses.get(media)
        if destination is None:
            raise RuntimeError(f"no open {media!r} channel on {self.call_id}")
        self.terminal.media_socket(media).sendto(
            packet, packet.wire_size, destination
        )

    def hangup(self) -> None:
        self.terminal._hangup(self)

    def _maybe_connected(self) -> None:
        if (
            self.state != H323Call.CONNECTED
            and self._tcs_acked
            and self._olcs_sent
            and self._pending_olc_acks == 0
        ):
            self.state = H323Call.CONNECTED
            if self.on_connected is not None:
                self.on_connected(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<H323Call {self.call_id} {self.state}>"


class H323Terminal:
    """An H.323 endpoint registered in a gatekeeper zone."""

    def __init__(
        self,
        host: Host,
        alias: str,
        gatekeeper: Address,
        capabilities: Optional[List[MediaCapability]] = None,
        h225_port: int = H225_PORT,
    ):
        self.host = host
        self.sim = host.sim
        self.alias = alias
        self.gatekeeper = gatekeeper
        self.capabilities = capabilities if capabilities is not None else [
            MediaCapability.default_audio(),
            MediaCapability.default_video(),
        ]
        self.registered = False
        self.on_incoming_call: Optional[IncomingCallHook] = None
        self.on_media: Optional[MediaCallback] = None
        self._ras = UdpSocket(host)
        self._ras.on_receive(self._on_ras)
        self._h225 = TcpListener(host, h225_port, on_connection=self._on_h225_connection)
        self._calls: Dict[str, H323Call] = {}
        self._media_sockets: Dict[str, UdpSocket] = {}
        self._pending_register: List[Callable[[bool], None]] = []
        self._pending_admissions: Dict[str, Callable] = {}
        self._pending_bandwidth: Dict[str, Callable[[bool], None]] = {}
        for capability in self.capabilities:
            self._ensure_media_socket(capability.media)

    # ------------------------------------------------------------- infra

    @property
    def call_signaling_address(self) -> Address:
        return self._h225.local_address

    def media_socket(self, media: str) -> UdpSocket:
        return self._ensure_media_socket(media)

    def _ensure_media_socket(self, media: str) -> UdpSocket:
        socket = self._media_sockets.get(media)
        if socket is None:
            socket = UdpSocket(self.host)
            socket.on_receive(
                lambda payload, src, dgram, media=media: self._on_media(
                    payload, media
                )
            )
            self._media_sockets[media] = socket
        return socket

    def media_address(self, media: str) -> Address:
        return self._ensure_media_socket(media).local_address

    def media_address_for(self, call: H323Call, media: str) -> Address:
        """RTP receive address offered for one call's channel.

        Terminals share one socket per media kind; MCUs override this to
        allocate a per-call socket so streams can be told apart.
        """
        return self.media_address(media)

    def calls(self) -> List[H323Call]:
        return list(self._calls.values())

    def _on_media(self, payload, media: str) -> None:
        if not isinstance(payload, RtpPacket):
            return
        if self.on_media is not None:
            # Attribute to the (single) call carrying this media kind.
            for call in self._calls.values():
                if call.state == H323Call.CONNECTED:
                    self.on_media(call, payload)
                    return

    # --------------------------------------------------------------- RAS

    def register(self, on_result: Optional[Callable[[bool], None]] = None) -> None:
        if on_result is not None:
            self._pending_register.append(on_result)
        request = RegistrationRequest(
            endpoint_alias=self.alias,
            call_signaling_address=self.call_signaling_address,
            reply_to=self._ras.local_address,
        )
        self._ras.sendto(request, request.wire_size, self.gatekeeper)

    def _on_ras(self, pdu, src: Address, datagram) -> None:
        if isinstance(pdu, RegistrationConfirm):
            self.registered = True
            pending, self._pending_register = self._pending_register, []
            for callback in pending:
                callback(True)
        elif isinstance(pdu, RegistrationReject):
            pending, self._pending_register = self._pending_register, []
            for callback in pending:
                callback(False)
        elif isinstance(pdu, AdmissionConfirm):
            handler = self._pending_admissions.pop(pdu.call_id, None)
            if handler is not None:
                handler(pdu)
        elif isinstance(pdu, AdmissionReject):
            handler = self._pending_admissions.pop(pdu.call_id, None)
            if handler is not None:
                handler(pdu)
        elif isinstance(pdu, (BandwidthConfirm, BandwidthReject)):
            handler = self._pending_bandwidth.pop(pdu.call_id, None)
            if handler is not None:
                handler(isinstance(pdu, BandwidthConfirm))

    def request_bandwidth(
        self,
        call: H323Call,
        bandwidth_bps: float,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Ask the gatekeeper to change this call's reserved bandwidth
        (BRQ/BCF/BRJ) — e.g. before opening a higher-rate video channel."""
        if on_result is not None:
            self._pending_bandwidth[call.call_id] = on_result
        request = BandwidthRequest(
            call_id=call.call_id,
            bandwidth_bps=bandwidth_bps,
            reply_to=self._ras.local_address,
        )
        self._ras.sendto(request, request.wire_size, self.gatekeeper)

    # ------------------------------------------------------------ calling

    def call(
        self,
        callee_alias: str,
        on_connected: Optional[CallCallback] = None,
        on_failed: Optional[Callable[[str], None]] = None,
    ) -> H323Call:
        """Place a call through the gatekeeper (ARQ first, then Setup)."""
        call = H323Call(self, new_call_id(), is_caller=True, remote_alias=callee_alias)
        call.on_connected = on_connected
        call.state = H323Call.ADMISSION
        self._calls[call.call_id] = call

        def on_admission(pdu) -> None:
            if isinstance(pdu, AdmissionReject):
                call.state = H323Call.RELEASED
                call.release_reason = pdu.reason
                del self._calls[call.call_id]
                if on_failed is not None:
                    on_failed(pdu.reason)
                return
            self._start_setup(call, pdu.callee_signaling_address)

        self._pending_admissions[call.call_id] = on_admission
        request = AdmissionRequest(
            call_id=call.call_id,
            caller_alias=self.alias,
            callee_alias=callee_alias,
            bandwidth_bps=CALL_BANDWIDTH_BPS,
            reply_to=self._ras.local_address,
        )
        self._ras.sendto(request, request.wire_size, self.gatekeeper)
        return call

    def _start_setup(self, call: H323Call, destination: Address) -> None:
        call.state = H323Call.SETUP

        def established(connection: TcpConnection) -> None:
            setup = Setup(
                call_id=call.call_id,
                caller_alias=self.alias,
                callee_alias=call.remote_alias,
            )
            connection.send(setup, setup.wire_size)

        call.signaling = tcp_connect(
            self.host,
            destination,
            on_established=established,
            on_message=lambda pdu, size, conn: self._on_h225_pdu(call, pdu),
        )

    # ------------------------------------------------------ H.225 inbound

    def _on_h225_connection(self, connection: TcpConnection) -> None:
        connection.on_message = (
            lambda pdu, size, conn: self._on_h225_inbound(pdu, conn)
        )

    def _on_h225_inbound(self, pdu, connection: TcpConnection) -> None:
        if isinstance(pdu, Setup):
            self._on_setup(pdu, connection)
            return
        call = self._calls.get(getattr(pdu, "call_id", ""))
        if call is not None:
            self._on_h225_pdu(call, pdu)

    def _on_setup(self, setup: Setup, connection: TcpConnection) -> None:
        call = H323Call(
            self, setup.call_id, is_caller=False, remote_alias=setup.caller_alias
        )
        call.signaling = connection
        connection.on_message = (
            lambda pdu, size, conn: self._on_h225_pdu(call, pdu)
        )
        # The hook may answer immediately (True/False) or "defer" — a
        # gateway defers until its XGSP join round-trip completes, then
        # calls accept_incoming()/reject_incoming().
        decision = self.on_incoming_call(setup) if self.on_incoming_call else False
        if decision == "defer":
            self._calls[call.call_id] = call
            call.state = H323Call.SETUP
            proceeding = CallProceeding(call.call_id)
            connection.send(proceeding, proceeding.wire_size)
            return
        if not decision:
            release = ReleaseComplete(setup.call_id, reason="destinationRejection")
            connection.send(release, release.wire_size)
            return
        self._calls[call.call_id] = call
        proceeding = CallProceeding(call.call_id)
        connection.send(proceeding, proceeding.wire_size)
        self.accept_incoming(call)

    def accept_incoming(self, call: H323Call) -> None:
        """Answer a (possibly deferred) incoming call: Alerting + Connect."""
        connection = call.signaling
        assert connection is not None
        alerting = Alerting(call.call_id)
        connection.send(alerting, alerting.wire_size)
        # Open our H.245 control listener and invite the caller to it.
        call.h245_listener = TcpListener(
            self.host,
            on_connection=lambda conn: self._h245_attach(call, conn, initiate=False),
        )
        call.state = H323Call.H245
        connect = Connect(call.call_id, call.h245_listener.local_address)
        connection.send(connect, connect.wire_size)

    def reject_incoming(self, call: H323Call, reason: str = "destinationRejection") -> None:
        """Reject a deferred incoming call."""
        connection = call.signaling
        if connection is not None and connection.established:
            release = ReleaseComplete(call.call_id, reason=reason)
            connection.send(release, release.wire_size)
        call.state = H323Call.RELEASED
        call.release_reason = reason
        self._calls.pop(call.call_id, None)

    def _on_h225_pdu(self, call: H323Call, pdu) -> None:
        if isinstance(pdu, CallProceeding):
            pass
        elif isinstance(pdu, Alerting):
            call.state = H323Call.RINGING
        elif isinstance(pdu, Connect):
            call.state = H323Call.H245
            connection = tcp_connect(
                self.host,
                pdu.h245_address,
                on_established=lambda conn: self._h245_attach(
                    call, conn, initiate=True
                ),
            )
            connection.on_message = (
                lambda pdu, size, conn: self._on_h245_pdu(call, pdu)
            )
        elif isinstance(pdu, ReleaseComplete):
            self._release(call, pdu.reason, send_release=False)

    # ------------------------------------------------------------- H.245

    def capabilities_for_call(self, call: H323Call) -> List[MediaCapability]:
        """Capability set advertised on one call's H.245 channel; gateways
        override this to advertise only the XGSP session's media kinds."""
        return list(self.capabilities)

    def _h245_attach(self, call: H323Call, connection: TcpConnection,
                     initiate: bool) -> None:
        call.h245 = connection
        listener = call.h245_listener
        if listener is not None:
            # The listener serves this one connection: it goes with it,
            # also when the remote's FIN is what closes it.
            connection.on_close = lambda _connection: listener.close()
        connection.on_message = (
            lambda pdu, size, conn: self._on_h245_pdu(call, pdu)
        )
        tcs = TerminalCapabilitySet(capabilities=self.capabilities_for_call(call))
        connection.send(tcs, tcs.wire_size)
        if initiate:
            msd = MasterSlaveDetermination()
            connection.send(msd, msd.wire_size)

    def _on_h245_pdu(self, call: H323Call, pdu) -> None:
        if isinstance(pdu, TerminalCapabilitySet):
            call.remote_capabilities = list(pdu.capabilities)
            call.common_capabilities = intersect_capabilities(
                self.capabilities_for_call(call), pdu.capabilities
            )
            ack = TerminalCapabilitySetAck()
            call.h245.send(ack, ack.wire_size)
        elif isinstance(pdu, TerminalCapabilitySetAck):
            call._tcs_acked = True
            self._open_channels(call)
        elif isinstance(pdu, MasterSlaveDetermination):
            ack = MasterSlaveDeterminationAck(decision="slave")
            call.h245.send(ack, ack.wire_size)
        elif isinstance(pdu, MasterSlaveDeterminationAck):
            pass
        elif isinstance(pdu, OpenLogicalChannel):
            call.remote_channels[pdu.channel] = pdu
            ack = OpenLogicalChannelAck(
                channel=pdu.channel,
                rtp_address=self.media_address_for(call, pdu.media),
            )
            call.h245.send(ack, ack.wire_size)
        elif isinstance(pdu, OpenLogicalChannelAck):
            olc = call.local_channels.get(pdu.channel)
            if olc is not None:
                call._send_addresses[olc.media] = pdu.rtp_address
                call._pending_olc_acks -= 1
                call._maybe_connected()
        elif isinstance(pdu, CloseLogicalChannel):
            call.remote_channels.pop(pdu.channel, None)
        elif isinstance(pdu, EndSessionCommand):
            self._release(call, "endSession", send_release=False)

    def _open_channels(self, call: H323Call) -> None:
        if call._olcs_sent:
            return
        call._olcs_sent = True
        for capability in call.common_capabilities:
            channel = next(_channel_numbers)
            olc = OpenLogicalChannel(
                channel=channel,
                media=capability.media,
                codec=capability.codec,
                rtp_address=self.media_address_for(call, capability.media),
            )
            call.local_channels[channel] = olc
            call._pending_olc_acks += 1
            call.h245.send(olc, olc.wire_size)
        call._maybe_connected()

    # ------------------------------------------------------------ release

    def _hangup(self, call: H323Call) -> None:
        if call.state == H323Call.RELEASED:
            return
        if call.h245 is not None and call.h245.established:
            for channel in list(call.local_channels):
                close = CloseLogicalChannel(channel)
                call.h245.send(close, close.wire_size)
            end = EndSessionCommand()
            call.h245.send(end, end.wire_size)
        self._release(call, "localHangup", send_release=True)

    def _release(self, call: H323Call, reason: str, send_release: bool) -> None:
        if call.state == H323Call.RELEASED:
            return
        call.state = H323Call.RELEASED
        call.release_reason = reason
        if send_release and call.signaling is not None and call.signaling.established:
            release = ReleaseComplete(call.call_id, reason=reason)
            call.signaling.send(release, release.wire_size)
        if call.is_caller:
            disengage = DisengageRequest(
                call_id=call.call_id, reply_to=self._ras.local_address
            )
            self._ras.sendto(disengage, disengage.wire_size, self.gatekeeper)
        self._calls.pop(call.call_id, None)
        if not send_release:
            # The remote ended the call and sends nothing more: close our
            # ends, whose FINs tear down the remote's.  A release we sent
            # is answered the same way by the remote; closing first could
            # let our FIN overtake the farewell on the wire.
            for transport in (call.signaling, call.h245, call.h245_listener):
                if transport is not None:
                    transport.close()
        if call.on_released is not None:
            call.on_released(call)

    def close(self) -> None:
        self._ras.close()
        self._h225.close()
        for socket in self._media_sockets.values():
            socket.close()
