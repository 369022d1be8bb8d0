"""RTP session endpoints.

An :class:`RtpSession` is one participant's media endpoint in a session:
it forwards locally-generated packets to an abstract transport (a UDP
socket, a broker topic publish, an RTP proxy...), tracks per-source
reception statistics, optionally runs packets through a playout buffer,
and exchanges periodic RTCP reports.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.rtp.packet import RtpPacket
from repro.rtp.playout import PlayoutBuffer
from repro.rtp.rtcp import (
    RTCP_RR_BYTES,
    RTCP_SR_BYTES,
    ReceiverReport,
    ReportBlock,
    SenderReport,
    rtcp_interval_s,
)
from repro.rtp.stats import ReceiverStats
from repro.simnet.kernel import Simulator, Timer

MediaSendFn = Callable[[RtpPacket], None]
RtcpSendFn = Callable[[Any, int], None]
MediaSink = Callable[[RtpPacket], None]

#: Session bandwidth (bit/s) the RTCP report interval is scaled to.
SESSION_BANDWIDTH_BPS = 600_000.0


class RtpSession:
    """One endpoint of an RTP session."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        send_media: Optional[MediaSendFn] = None,
        send_rtcp: Optional[RtcpSendFn] = None,
        playout_delay_s: Optional[float] = None,
    ):
        self.sim = sim
        self.name = name
        self._send_media = send_media
        self._send_rtcp = send_rtcp
        self._sinks: List[MediaSink] = []
        self._stats: Dict[int, ReceiverStats] = {}
        self._playout: Dict[int, PlayoutBuffer] = {}
        self._playout_delay_s = playout_delay_s
        self._rtcp_timer: Optional[Timer] = None
        self._local_ssrcs: Dict[int, List[int]] = {}  # ssrc -> [pkts, octets]
        self._last_rtp_timestamp: Dict[int, int] = {}
        self.received_sender_reports: Dict[int, SenderReport] = {}
        self.received_receiver_reports: List[ReceiverReport] = []
        self.rtcp_sent = 0

    # ------------------------------------------------------------ sending

    def send_packet(self, packet: RtpPacket) -> None:
        """Transmit a locally-generated packet (MediaSource ``send`` hook)."""
        if self._send_media is None:
            raise RuntimeError(f"session {self.name} has no media transport")
        counters = self._local_ssrcs.setdefault(packet.ssrc, [0, 0])
        counters[0] += 1
        counters[1] += packet.payload_size
        self._last_rtp_timestamp[packet.ssrc] = packet.timestamp
        self._send_media(packet)

    # ---------------------------------------------------------- receiving

    def on_media(self, sink: MediaSink) -> None:
        """Register a sink for received (possibly playout-buffered) media."""
        self._sinks.append(sink)

    def receive_media(self, packet: RtpPacket) -> None:
        """Feed a packet that arrived from the network."""
        stats = self._stats.get(packet.ssrc)
        if stats is None:
            stats = ReceiverStats()
            self._stats[packet.ssrc] = stats
        stats.on_packet(packet, self.sim.now)
        if self._playout_delay_s is not None:
            buffer = self._playout.get(packet.ssrc)
            if buffer is None:
                buffer = PlayoutBuffer(
                    self.sim,
                    self._deliver,
                    target_delay_s=self._playout_delay_s,
                )
                self._playout[packet.ssrc] = buffer
            buffer.offer(packet)
        else:
            self._deliver(packet)

    def _deliver(self, packet: RtpPacket) -> None:
        for sink in self._sinks:
            sink(packet)

    def receive_rtcp(self, report: Any) -> None:
        if isinstance(report, SenderReport):
            self.received_sender_reports[report.ssrc] = report
        elif isinstance(report, ReceiverReport):
            self.received_receiver_reports.append(report)

    # -------------------------------------------------------------- stats

    def stats_for(self, ssrc: int) -> Optional[ReceiverStats]:
        return self._stats.get(ssrc)

    def heard_sources(self) -> List[int]:
        return sorted(self._stats)

    # --------------------------------------------------------------- rtcp

    def start_rtcp(self) -> None:
        if self._rtcp_timer is None:
            self._schedule_rtcp()

    def stop_rtcp(self) -> None:
        if self._rtcp_timer is not None:
            self._rtcp_timer.cancel()
            self._rtcp_timer = None

    def _schedule_rtcp(self) -> None:
        members = len(self._stats) + max(1, len(self._local_ssrcs))
        interval = rtcp_interval_s(SESSION_BANDWIDTH_BPS, members)
        self._rtcp_timer = self.sim.schedule(interval, self._rtcp_tick)

    def _rtcp_tick(self) -> None:
        if self._send_rtcp is not None:
            for report in self.build_reports():
                size = (
                    RTCP_SR_BYTES
                    if isinstance(report, SenderReport)
                    else RTCP_RR_BYTES + 24 * (len(report.blocks) - 1)
                    if report.blocks
                    else RTCP_RR_BYTES
                )
                self._send_rtcp(report, size)
                self.rtcp_sent += 1
        self._schedule_rtcp()

    def build_reports(self) -> List[Any]:
        """Current SR (if we sent anything) and RR (if we heard anyone)."""
        reports: List[Any] = []
        for ssrc, (packets, octets) in sorted(self._local_ssrcs.items()):
            reports.append(
                SenderReport(
                    ssrc=ssrc,
                    ntp_time=self.sim.now,
                    rtp_timestamp=self._last_rtp_timestamp.get(ssrc, 0),
                    packet_count=packets,
                    octet_count=octets,
                )
            )
        blocks = []
        reporter = min(self._local_ssrcs) if self._local_ssrcs else 0
        for ssrc in sorted(self._stats):
            stats = self._stats[ssrc]
            expected = stats.expected
            blocks.append(
                ReportBlock(
                    ssrc=ssrc,
                    fraction_lost=stats.lost / expected if expected else 0.0,
                    cumulative_lost=stats.lost,
                    highest_seq=stats._highest_seq or 0,
                    jitter_s=stats.current_jitter_s,
                )
            )
        if blocks:
            reports.append(ReceiverReport(reporter_ssrc=reporter, blocks=blocks))
        return reports
