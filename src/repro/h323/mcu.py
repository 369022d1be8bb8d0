"""A classic H.323 MCU (multipoint control unit).

Terminals call the MCU's alias; the MCU accepts every call, negotiates
H.245 channels per participant with *per-call* RTP sockets, and reflects
each participant's media to all the others.  This is both a conference
bridge in its own right and the paper's example of a third-party server
that Global-MMCS can schedule into a session through WSDL-CI (the
adapter in :mod:`repro.core.xgsp.wsdl_ci` wraps it).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.h323.pdu import Setup
from repro.h323.terminal import H323Call, H323Terminal
from repro.rtp.packet import RtpPacket
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.udp import UdpSocket


class H323Mcu(H323Terminal):
    """A multipoint bridge built on the terminal's signaling engine."""

    def __init__(
        self,
        host: Host,
        alias: str,
        gatekeeper: Address,
        max_participants: int = 64,
        h225_port: int = 1730,
    ):
        super().__init__(host, alias, gatekeeper, h225_port=h225_port)
        self.max_participants = max_participants
        self._call_sockets: Dict[Tuple[str, str], UdpSocket] = {}
        self.packets_reflected = 0
        self.on_incoming_call = self._accept_policy

    # ----------------------------------------------------------- policy

    def _accept_policy(self, setup: Setup) -> bool:
        return len(self._calls) < self.max_participants

    def participants(self) -> List[str]:
        return sorted(
            call.remote_alias
            for call in self._calls.values()
            if call.state == H323Call.CONNECTED
        )

    # ------------------------------------------------------ media planes

    def media_address_for(self, call: H323Call, media: str) -> Address:
        key = (call.call_id, media)
        socket = self._call_sockets.get(key)
        if socket is None:
            socket = UdpSocket(self.host)
            socket.on_receive(
                lambda payload, src, dgram, call=call, media=media:
                self._reflect(call, media, payload)
            )
            self._call_sockets[key] = socket
        return socket.local_address

    def _reflect(self, from_call: H323Call, media: str, payload) -> None:
        if not isinstance(payload, RtpPacket):
            return
        for call in list(self._calls.values()):
            if call.call_id == from_call.call_id:
                continue
            if call.state != H323Call.CONNECTED:
                continue
            if call.remote_media_address(media) is None:
                continue
            self.packets_reflected += 1
            call.send_media(media, payload)

    def close(self) -> None:
        for socket in self._call_sockets.values():
            socket.close()
        self._call_sockets.clear()
        super().close()
