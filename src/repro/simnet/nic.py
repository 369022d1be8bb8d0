"""Network interface with finite serialization bandwidth.

The NIC is a single transmit queue: datagrams serialize at the link rate
and excess packets wait; when the buffer is full, arrivals are tail-dropped.
For the Figure 3 experiment this models the 240 Mbps aggregate the paper's
reflector host pushes through its interface.

Serialization is tracked *arithmetically* rather than with one kernel
timer per packet: the NIC keeps the virtual time at which its transmitter
frees up (``_free_at``) plus a lazily-purged ledger of not-yet-started
packets for tail-drop accounting.  Each accepted datagram's completion
time is ``max(now, free_at) + size/rate`` — identical to simulating the
queue event-by-event, but with zero kernel events of its own.  The
completion time is handed straight to the ``route_future`` hook
(``Network.route_future`` on a host) so the whole serialize-then-propagate
pipeline costs a single kernel event per packet.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Tuple

from repro.simnet.kernel import Simulator
from repro.simnet.packet import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.link import LinkProfile

#: Signature of the delivery hook: ``(datagram, tx_done_time)``.
RouteFuture = Callable[[Datagram, float], None]


class Nic:
    """Transmit-side interface queue for one host."""

    __slots__ = (
        "sim",
        "_route_future",
        "queue_limit_bytes",
        "_sec_per_byte",
        "_free_at",
        "_pending",
        "_queued_bytes",
        "sent_packets",
        "sent_bytes",
        "dropped_packets",
    )

    def __init__(
        self,
        sim: Simulator,
        link: "LinkProfile",
        route_future: RouteFuture,
        queue_limit_bytes: int = 2 * 1024 * 1024,
    ):
        self.sim = sim
        self._route_future = route_future
        self.queue_limit_bytes = queue_limit_bytes
        self._sec_per_byte = 8.0 / link.bandwidth_bps
        self._free_at = 0.0
        # (service_start_time, size) of accepted packets that have not yet
        # begun serialization; the in-service packet is *not* queued, which
        # matches the event-driven queue (it popped on service start).
        self._pending: Deque[Tuple[float, int]] = deque()
        self._queued_bytes = 0
        self.sent_packets = 0
        self.sent_bytes = 0
        self.dropped_packets = 0

    def _purge(self, now: float) -> int:
        """Drop ledger entries whose serialization has started; returns
        the bytes still waiting."""
        pending = self._pending
        queued = self._queued_bytes
        while pending and pending[0][0] <= now:
            queued -= pending.popleft()[1]
        self._queued_bytes = queued
        return queued

    @property
    def queue_depth(self) -> int:
        self._purge(self.sim.now)
        return len(self._pending)

    @property
    def queued_bytes(self) -> int:
        return self._purge(self.sim.now)

    def enqueue(self, datagram: Datagram) -> bool:
        """Queue a datagram for transmission; False if tail-dropped."""
        now = self.sim.now
        size = datagram.size
        pending = self._pending
        queued = self._queued_bytes
        while pending and pending[0][0] <= now:
            queued -= pending.popleft()[1]
        if queued + size > self.queue_limit_bytes:
            self._queued_bytes = queued
            self.dropped_packets += 1
            return False
        free_at = self._free_at
        start = free_at if free_at > now else now
        done = start + size * self._sec_per_byte
        self._free_at = done
        if start > now:
            pending.append((start, size))
            queued += size
        self._queued_bytes = queued
        self.sent_packets += 1
        self.sent_bytes += size
        self._route_future(datagram, done)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Nic sent={self.sent_packets} dropped={self.dropped_packets}>"
