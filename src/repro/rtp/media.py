"""Audio/video traffic models.

These replace the paper's live capture hardware (cameras, microphones,
vic/rat tools) with synthetic sources that exercise the same code paths
and — crucially for Figure 3 — the same *burstiness*:

* :class:`VideoSource` models a GOP-structured encoder: large I-frames
  followed by runs of small P-frames at a fixed frame rate, fragmented to
  MTU-sized RTP packets sent back-to-back per frame.  The paper's test
  stream "has an average bandwidth of 600Kbps"; the I-frame bursts are
  what drives queueing delay through the reflector under fan-out.
* :class:`AudioSource` models PCMU: fixed 160-byte packets every 20 ms,
  optionally gated by a talkspurt/silence model (voice activity).
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional

from repro.rtp.packet import PayloadType, RtpPacket, SEQ_MOD, TS_MOD
from repro.simnet.kernel import Simulator, Timer

SendFn = Callable[[RtpPacket], None]

_ssrc_counter = itertools.count(0x1000)


def allocate_ssrc() -> int:
    """Deterministic SSRC allocation (real RTP randomizes; the simulation
    needs reproducibility)."""
    return next(_ssrc_counter)


class MediaSource:
    """Base class: owns sequence/timestamp state and the emit loop."""

    def __init__(
        self,
        sim: Simulator,
        send: SendFn,
        payload_type: PayloadType,
        ssrc: Optional[int] = None,
    ):
        self.sim = sim
        self.send = send
        self.payload_type = payload_type
        self.ssrc = ssrc if ssrc is not None else allocate_ssrc()
        self._sequence = 0
        self._running = False
        self._timer: Optional[Timer] = None
        self.packets_sent = 0
        self.bytes_sent = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next(0.0)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def running(self) -> bool:
        return self._running

    def _schedule_next(self, delay: float) -> None:
        self._timer = self.sim.schedule(delay, self._tick)

    def _tick(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _emit(self, payload_size: int, timestamp: int, marker: bool) -> None:
        packet = RtpPacket(
            ssrc=self.ssrc,
            sequence=self._sequence,
            timestamp=timestamp % TS_MOD,
            payload_type=self.payload_type,
            payload_size=payload_size,
            marker=marker,
            wallclock_sent=self.sim.now,
        )
        self._sequence = (self._sequence + 1) % SEQ_MOD
        self.packets_sent += 1
        self.bytes_sent += packet.wire_size
        self.send(packet)


class VideoSource(MediaSource):
    """GOP-structured video at a target average bitrate.

    Frame sizes: with GOP length ``g`` and I/P size ratio ``r``, the
    average frame is ``bitrate / (8 * fps)`` bytes, so P-frames are
    ``avg * g / (r + g - 1)`` and I-frames ``r`` times that.  A small
    multiplicative noise term (within ``SIZE_JITTER`` of the mean)
    models content-dependent variation.
    """

    SIZE_JITTER = 0.15

    def __init__(
        self,
        sim: Simulator,
        send: SendFn,
        bitrate_bps: float = 600_000.0,
        fps: float = 30.0,
        gop: int = 30,
        i_frame_ratio: float = 6.0,
        mtu_payload: int = 1250,
        rng: Optional[random.Random] = None,
        ssrc: Optional[int] = None,
    ):
        super().__init__(sim, send, PayloadType.H261, ssrc)
        if fps <= 0 or gop < 1 or bitrate_bps <= 0:
            raise ValueError("fps, gop, and bitrate must be positive")
        self.bitrate_bps = bitrate_bps
        self.fps = fps
        self.gop = gop
        self.i_frame_ratio = i_frame_ratio
        self.mtu_payload = mtu_payload
        self.rng = rng if rng is not None else random.Random(0)
        avg_frame = bitrate_bps / (8.0 * fps)
        self.p_frame_bytes = avg_frame * gop / (i_frame_ratio + gop - 1)
        self.i_frame_bytes = self.p_frame_bytes * i_frame_ratio
        self._frame_index = 0
        self.frames_sent = 0

    def _tick(self) -> None:
        if not self._running:
            return
        is_iframe = self._frame_index % self.gop == 0
        base = self.i_frame_bytes if is_iframe else self.p_frame_bytes
        noise = 1.0 + self.rng.uniform(-self.SIZE_JITTER, self.SIZE_JITTER)
        frame_bytes = max(64, int(base * noise))
        timestamp = int(
            self._frame_index / self.fps * self.payload_type.clock_rate
        )
        # Fragment the frame into MTU-sized packets sent back-to-back;
        # the marker bit flags the last packet of the frame.
        remaining = frame_bytes
        while remaining > 0:
            chunk = min(self.mtu_payload, remaining)
            remaining -= chunk
            self._emit(chunk, timestamp, marker=remaining == 0)
        self.frames_sent += 1
        self._frame_index += 1
        self._schedule_next(1.0 / self.fps)


class AudioSource(MediaSource):
    """PCMU-style audio: fixed-size packets on a fixed interval, with an
    optional two-state talkspurt/silence (voice activity) model."""

    #: Mean talkspurt and silence lengths (s) of the voice-activity model.
    TALKSPURT_MEAN_S = 1.2
    SILENCE_MEAN_S = 1.8

    def __init__(
        self,
        sim: Simulator,
        send: SendFn,
        packet_interval_s: float = 0.020,
        payload_bytes: int = 160,
        vad: bool = False,
        rng: Optional[random.Random] = None,
        ssrc: Optional[int] = None,
        payload_type: PayloadType = PayloadType.PCMU,
    ):
        super().__init__(sim, send, payload_type, ssrc)
        self.packet_interval_s = packet_interval_s
        self.payload_bytes = payload_bytes
        self.vad = vad
        self.rng = rng if rng is not None else random.Random(0)
        self._talking = True
        self._state_ends_at = 0.0
        self._tick_index = 0

    def _tick(self) -> None:
        if not self._running:
            return
        if self.vad and self.sim.now >= self._state_ends_at:
            self._talking = not self._talking
            mean = (
                self.TALKSPURT_MEAN_S if self._talking else self.SILENCE_MEAN_S
            )
            self._state_ends_at = self.sim.now + self.rng.expovariate(1.0 / mean)
        if not self.vad or self._talking:
            timestamp = int(
                self._tick_index
                * self.packet_interval_s
                * self.payload_type.clock_rate
            )
            self._emit(self.payload_bytes, timestamp, marker=False)
        self._tick_index += 1
        self._schedule_next(self.packet_interval_s)
