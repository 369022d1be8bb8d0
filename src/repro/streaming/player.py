"""Streaming players (RealPlayer / Windows Media Player).

An RTSP client: DESCRIBE → SETUP (announcing its UDP data port) → PLAY.
Incoming chunks fill a startup buffer; playback begins once the buffer
holds ``STARTUP_BUFFER_S`` of media, and stalls (rebuffering) are counted
when the buffer runs dry — the user-visible quality metric for the
streaming benchmarks.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.tcp import TcpConnection, tcp_connect
from repro.simnet.udp import UdpSocket
from repro.streaming.formats import RealChunk
from repro.streaming.rtsp import (
    RtspParseError,
    RtspRequest,
    RtspResponse,
    parse_rtsp,
)


class RealPlayer:
    """An RTSP streaming client with a startup buffer."""

    PLAYER_KIND = "real"
    #: Media (s) buffered before playback starts.
    STARTUP_BUFFER_S = 2.0

    def __init__(self, host: Host, server_rtsp: Address, stream: str):
        self.host = host
        self.sim = host.sim
        self.server_rtsp = server_rtsp
        self.stream = stream
        self._data = UdpSocket(host)
        self._data.on_receive(self._on_chunk)
        self._control: Optional[TcpConnection] = None
        self._cseq = 0
        self._pending: dict = {}
        self.session_id: Optional[str] = None
        self.state = "idle"
        self.described_media: List[str] = []
        # Playback model.
        self.buffered_media_s = 0.0
        self.playing_since: Optional[float] = None
        self.startup_latency_s: Optional[float] = None
        self.started_at = self.sim.now
        self.chunks_received = 0
        self.bytes_received = 0
        self.stalls = 0
        self.first_chunk_latency_s: Optional[float] = None
        self.on_playing: Optional[Callable[["RealPlayer"], None]] = None

    # ------------------------------------------------------------ control

    def connect_and_play(self) -> None:
        """Run the full DESCRIBE/SETUP/PLAY sequence."""
        self._control = tcp_connect(
            self.host,
            self.server_rtsp,
            on_established=lambda conn: self._describe(),
            on_message=lambda text, size, conn: self._on_rtsp_text(text),
        )
        self.state = "connecting"

    def _request(self, request: RtspRequest, on_response) -> None:
        assert self._control is not None
        self._cseq += 1
        request.set("Cseq", self._cseq)
        self._pending[self._cseq] = on_response
        self._control.send(request.render(), request.wire_size)

    def _url(self) -> str:
        return (
            f"rtsp://{self.server_rtsp.host}:{self.server_rtsp.port}/{self.stream}"
        )

    def _describe(self) -> None:
        self._request(
            RtspRequest("DESCRIBE", self._url()), self._on_described
        )

    def _on_described(self, response: RtspResponse) -> None:
        if not response.ok:
            self.state = "failed"
            return
        self.described_media = [
            line[len("m="):]
            for line in response.body.split("\r\n")
            if line.startswith("m=")
        ]
        setup = RtspRequest("SETUP", self._url())
        setup.set(
            "Transport",
            f"RAW/RAW/UDP;client_addr={self._data.local_address.host}:"
            f"{self._data.local_address.port}",
        )
        self._request(setup, self._on_setup)

    def _on_setup(self, response: RtspResponse) -> None:
        if not response.ok:
            self.state = "failed"
            return
        self.session_id = response.get("Session")
        play = RtspRequest("PLAY", self._url())
        play.set("Session", self.session_id or "")
        self._request(play, self._on_play)

    def _on_play(self, response: RtspResponse) -> None:
        self.state = "buffering" if response.ok else "failed"

    def pause(self) -> None:
        if self.session_id is None:
            return
        pause = RtspRequest("PAUSE", self._url())
        pause.set("Session", self.session_id)
        self._request(pause, lambda response: None)
        self.state = "paused"

    def teardown(self) -> None:
        if self.session_id is None:
            return
        request = RtspRequest("TEARDOWN", self._url())
        request.set("Session", self.session_id)
        self._request(request, lambda response: None)
        self.state = "stopped"

    def _on_rtsp_text(self, text) -> None:
        try:
            response = parse_rtsp(text)
        except (RtspParseError, TypeError):
            return
        if not isinstance(response, RtspResponse):
            return
        handler = self._pending.pop(response.cseq, None)
        if handler is not None:
            handler(response)

    # --------------------------------------------------------------- data

    def _on_chunk(self, payload, src: Address, datagram) -> None:
        if not isinstance(payload, RealChunk):
            return
        self.chunks_received += 1
        self.bytes_received += payload.size
        if self.first_chunk_latency_s is None:
            self.first_chunk_latency_s = self.sim.now - payload.encoded_at
        # Count buffer fill on the video track (or audio if audio-only).
        if payload.kind == "video" or "video" not in self.described_media:
            self.buffered_media_s += payload.duration_s
        if self.state == "buffering" and (
            self.buffered_media_s >= self.STARTUP_BUFFER_S
        ):
            self.state = "playing"
            self.playing_since = self.sim.now
            self.startup_latency_s = self.sim.now - self.started_at
            self._drain()
            if self.on_playing is not None:
                self.on_playing(self)

    def _drain(self) -> None:
        """Consume 0.1 s of buffered media every 0.1 s of wallclock."""
        if self.state != "playing":
            return
        if self.buffered_media_s <= 0.0:
            self.stalls += 1
            self.state = "buffering"
            return
        self.buffered_media_s -= 0.1
        self.sim.schedule(0.1, self._drain)

    def close(self) -> None:
        self._data.close()
        if self._control is not None:
            self._control.close()


class WindowsMediaPlayer(RealPlayer):
    """Same control protocol; identifies as a WM client (profile choice
    is made server-side by mount format in larger deployments)."""

    PLAYER_KIND = "wm"
    STARTUP_BUFFER_S = 3.0
