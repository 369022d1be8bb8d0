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
queue event-by-event, but with zero kernel events of its own.
``Host.send`` does the arithmetic in the frame that also routes the
datagram (one frame and one kernel event per packet); this class keeps
the state, the counters and the getters the overload controller reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.simnet.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.link import LinkProfile

#: Transmit buffer a NIC starts with (``queue_limit_bytes`` may be set
#: afterwards to model a thinner host).
QUEUE_LIMIT_BYTES = 2 * 1024 * 1024


class Nic:
    """Transmit-side interface queue for one host (``Host.send`` moves
    ``_free_at``, ``_pending`` and ``_queued_bytes``)."""

    __slots__ = (
        "sim",
        "queue_limit_bytes",
        "_sec_per_byte",
        "_free_at",
        "_pending",
        "_queued_bytes",
        "sent_packets",
        "sent_bytes",
        "dropped_packets",
    )

    def __init__(self, sim: Simulator, link: "LinkProfile"):
        self.sim = sim
        self.queue_limit_bytes = QUEUE_LIMIT_BYTES
        self._sec_per_byte = 8.0 / link.bandwidth_bps
        self._free_at = 0.0
        # (service_start_time, size) of accepted packets that have not yet
        # begun serialization; the in-service packet is *not* queued, which
        # matches the event-driven queue (it popped on service start).
        # Made by the first packet that waits: most NICs never queue.
        self._pending: Optional[Deque[Tuple[float, int]]] = None
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
        pending = self._pending
        return len(pending) if pending is not None else 0

    @property
    def queued_bytes(self) -> int:
        return self._purge(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Nic sent={self.sent_packets} dropped={self.dropped_packets}>"
