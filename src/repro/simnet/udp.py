"""UDP-like datagram sockets.

Unreliable, unordered (reordering can arise from link jitter), connectionless.
This is the transport used for RTP media in the paper's experiments.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simnet.node import Host
from repro.simnet.packet import Address, Datagram
from repro.simnet.transport import TransportError, UDP_HEADER_BYTES

ReceiveCallback = Callable[[Any, Address, Datagram], None]


class UdpSocket:
    """A bound datagram socket on a simulated host."""

    __slots__ = (
        "host",
        "port",
        "_callback",
        "closed",
        "_joined_groups",
        "sent_packets",
        "received_packets",
    )

    def __init__(self, host: Host, port: Optional[int] = None):
        self.host = host
        self.port = host.allocate_port() if port is None else port
        self._callback: Optional[ReceiveCallback] = None
        self.closed = False  # plain attribute: links test it per send
        self._joined_groups: Optional[set] = None  # made by join_group
        host.bind(self.port, self._on_datagram)
        self.sent_packets = 0
        self.received_packets = 0

    @property
    def local_address(self) -> Address:
        return Address(self.host.name, self.port)

    def on_receive(self, callback: ReceiveCallback) -> None:
        """Register the receive callback ``(payload, src, datagram)``."""
        self._callback = callback

    def sendto(self, payload: Any, size: int, dst: Address) -> bool:
        """Send a datagram; ``size`` is the UDP payload size in bytes."""
        if self.closed:
            raise TransportError("socket is closed")
        self.sent_packets += 1
        return self.host.send(self.port, dst, payload, size + UDP_HEADER_BYTES)

    def join_group(self, group: str) -> None:
        """Subscribe this socket to a multicast group."""
        self.host.network.join_group(group, self.local_address)
        if self._joined_groups is None:
            self._joined_groups = set()
        self._joined_groups.add(group)

    def leave_group(self, group: str) -> None:
        self.host.network.leave_group(group, self.local_address)
        if self._joined_groups is not None:
            self._joined_groups.discard(group)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for group in list(self._joined_groups or ()):
            self.leave_group(group)
        self.host.unbind(self.port)

    def _on_datagram(self, datagram: Datagram) -> None:
        if self.closed or self._callback is None:
            return
        self.received_packets += 1
        self._callback(datagram.payload, datagram.src, datagram)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UdpSocket {self.local_address}>"
