"""Datagrams and addressing.

An :class:`Address` is ``(host, port)`` where ``host`` is the simulated
host's name (or a multicast group string).  A :class:`Datagram` carries an
arbitrary Python payload plus an explicit wire size in bytes; the size — not
the payload object — is what NICs and links account against bandwidth.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class Address(NamedTuple):
    """A network endpoint: simulated host name (or multicast group) + port."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class Datagram:
    """A unit of network transmission.

    Attributes:
        src: sender endpoint.
        dst: destination endpoint (unicast host or multicast group).
        payload: arbitrary payload object (protocol message, bytes, ...).
        size: wire size in bytes, charged against NIC/link bandwidth.
    """

    __slots__ = ("src", "dst", "payload", "size")

    def __init__(self, src: Address, dst: Address, payload: Any, size: int):
        if size <= 0:
            raise ValueError(f"datagram size must be positive, got {size}")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Datagram {self.src}->{self.dst} {self.size}B>"
