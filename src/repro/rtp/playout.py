"""Receiver playout buffer.

Media receivers delay playback by a small buffer to absorb network jitter
and re-order packets.  Packets later than their playout deadline are
dropped (late loss).  The buffer can adapt its depth to the observed
jitter (``adaptive=True``), the behaviour real players (and the paper's
"very good quality" criterion) rely on.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.rtp.jitter import InterarrivalJitter
from repro.rtp.packet import RtpPacket, seq_less
from repro.simnet.kernel import Simulator

PlayFn = Callable[[RtpPacket], None]

#: An adaptive buffer's delay, in multiples of the measured jitter.
ADAPTIVE_MULTIPLIER = 4.0


class PlayoutBuffer:
    """Jitter buffer with deadline-based release."""

    def __init__(
        self,
        sim: Simulator,
        play: PlayFn,
        target_delay_s: float = 0.080,
        adaptive: bool = False,
        min_delay_s: float = 0.020,
        max_delay_s: float = 0.400,
    ):
        self.sim = sim
        self._play = play
        self.target_delay_s = target_delay_s
        self.adaptive = adaptive
        self.min_delay_s = min_delay_s
        self.max_delay_s = max_delay_s
        self._jitter = InterarrivalJitter()
        self._base_offset: Optional[float] = None  # playout - media time
        self._last_played_seq: Optional[int] = None
        self.played = 0
        self.late_drops = 0
        self.duplicates = 0

    @property
    def current_delay_s(self) -> float:
        if not self.adaptive:
            return self.target_delay_s
        estimated = ADAPTIVE_MULTIPLIER * self._jitter.jitter_s
        return min(self.max_delay_s, max(self.min_delay_s, estimated))

    def offer(self, packet: RtpPacket) -> None:
        """Insert an arriving packet; it plays at its deadline or drops."""
        now = self.sim.now
        media_time = packet.media_time()
        self._jitter.update(media_time, now)
        if self._base_offset is None:
            # Anchor playback: first packet plays after the buffer delay.
            self._base_offset = now + self.current_delay_s - media_time
        if self._last_played_seq is not None and not seq_less(
            self._last_played_seq, packet.sequence
        ):
            self.duplicates += 1
            return
        deadline = media_time + self._base_offset
        if deadline < now:
            self.late_drops += 1
            return
        self.sim.schedule(deadline - now, self._release, packet)

    def _release(self, packet: RtpPacket) -> None:
        # Drop anything that would play out of order (an earlier-seq packet
        # whose deadline already passed while a later one played).
        if self._last_played_seq is not None and not seq_less(
            self._last_played_seq, packet.sequence
        ):
            self.late_drops += 1
            return
        self._last_played_seq = packet.sequence
        self.played += 1
        self._play(packet)
