"""Tests for the playout buffer and RTP session endpoints."""

import pytest

from repro.rtp.packet import PayloadType, RtpPacket
from repro.rtp.playout import PlayoutBuffer
from repro.rtp.rtcp import ReceiverReport, SenderReport, rtcp_interval_s
from repro.rtp.session import RtpSession
from repro.simnet import Simulator


def packet(seq, ts, sent=0.0):
    return RtpPacket(
        ssrc=1,
        sequence=seq,
        timestamp=ts,
        payload_type=PayloadType.PCMU,  # 8 kHz: ts 160 = 20 ms
        payload_size=160,
        wallclock_sent=sent,
    )


class TestPlayoutBuffer:
    def test_release_at_media_cadence(self):
        sim = Simulator()
        played = []
        buffer = PlayoutBuffer(sim, lambda p: played.append((p.sequence, sim.now)),
                               target_delay_s=0.1)
        # Packets arrive with jitter but identical spacing in media time.
        arrivals = [(0, 0, 0.00), (1, 160, 0.035), (2, 320, 0.041)]
        for seq, ts, at in arrivals:
            sim.schedule(at, buffer.offer, packet(seq, ts))
        sim.run()
        times = [t for _seq, t in played]
        assert [s for s, _t in played] == [0, 1, 2]
        assert times[1] - times[0] == pytest.approx(0.020)
        assert times[2] - times[1] == pytest.approx(0.020)

    def test_reordered_arrivals_play_in_order(self):
        sim = Simulator()
        played = []
        buffer = PlayoutBuffer(sim, lambda p: played.append(p.sequence),
                               target_delay_s=0.1)
        sim.schedule(0.000, buffer.offer, packet(0, 0))
        sim.schedule(0.010, buffer.offer, packet(2, 320))
        sim.schedule(0.015, buffer.offer, packet(1, 160))
        sim.run()
        assert played == [0, 1, 2]

    def test_late_packet_dropped(self):
        sim = Simulator()
        played = []
        buffer = PlayoutBuffer(sim, lambda p: played.append(p.sequence),
                               target_delay_s=0.05)
        sim.schedule(0.0, buffer.offer, packet(0, 0))
        # Media time 20 ms + base offset 50 ms = deadline 70 ms; arrives 200 ms.
        sim.schedule(0.200, buffer.offer, packet(1, 160))
        sim.run()
        assert played == [0]
        assert buffer.late_drops == 1

    def test_duplicate_dropped(self):
        sim = Simulator()
        played = []
        buffer = PlayoutBuffer(sim, lambda p: played.append(p.sequence),
                               target_delay_s=0.05)
        sim.schedule(0.0, buffer.offer, packet(0, 0))
        sim.schedule(0.061, buffer.offer, packet(0, 0))  # after playout
        sim.run()
        assert played == [0]
        assert buffer.duplicates == 1

    def test_adaptive_delay_tracks_jitter(self):
        sim = Simulator()
        buffer = PlayoutBuffer(sim, lambda p: None, adaptive=True,
                               min_delay_s=0.02, max_delay_s=0.4)
        assert buffer.current_delay_s == 0.02  # floor before any jitter
        # Feed jittery arrivals directly into the estimator.
        for i in range(200):
            jitter = 0.03 if i % 2 else 0.0
            buffer._jitter.update(i * 0.02, i * 0.02 + 0.05 + jitter)
        assert buffer.current_delay_s > 0.05


class TestRtpSession:
    def test_send_and_receive_with_stats(self):
        sim = Simulator()
        wire = []
        sender = RtpSession(sim, "tx", send_media=wire.append)
        receiver = RtpSession(sim, "rx")
        got = []
        receiver.on_media(got.append)
        for i in range(10):
            sender.send_packet(packet(i, i * 160, sent=sim.now))
        for p in wire:
            receiver.receive_media(p)
        assert [p.sequence for p in got] == list(range(10))
        stats = receiver.stats_for(1)
        assert stats is not None and stats.packet_count == 10

    def test_send_without_transport_raises(self):
        session = RtpSession(Simulator(), "x")
        with pytest.raises(RuntimeError):
            session.send_packet(packet(0, 0))

    def test_playout_path(self):
        sim = Simulator()
        receiver = RtpSession(sim, "rx", playout_delay_s=0.05)
        got = []
        receiver.on_media(lambda p: got.append(sim.now))
        receiver.receive_media(packet(0, 0))
        sim.run()
        assert got and got[0] == pytest.approx(0.05)

    def test_zero_playout_delay_plays_on_arrival(self):
        """0 s is a buffer with no delay, not the 80 ms default."""
        sim = Simulator()
        receiver = RtpSession(sim, "rx", playout_delay_s=0.0)
        got = []
        receiver.on_media(lambda p: got.append(sim.now))
        receiver.receive_media(packet(0, 0))
        sim.run()
        assert got == [0.0]

    def test_rtcp_reports_generated(self):
        sim = Simulator()
        reports = []
        sender = RtpSession(
            sim, "tx", send_media=lambda p: None,
            send_rtcp=lambda r, size: reports.append(r),
        )
        sender.send_packet(packet(0, 0))
        sender.start_rtcp()
        sim.run(until=12.0)
        sender.stop_rtcp()
        srs = [r for r in reports if isinstance(r, SenderReport)]
        assert srs and srs[0].packet_count == 1
        assert srs[0].octet_count == 160

    def test_receiver_report_carries_loss_and_jitter(self):
        sim = Simulator()
        receiver = RtpSession(sim, "rx")
        for seq in (0, 1, 4):
            receiver.receive_media(packet(seq, seq * 160, sent=0.0))
        reports = receiver.build_reports()
        rrs = [r for r in reports if isinstance(r, ReceiverReport)]
        assert len(rrs) == 1
        block = rrs[0].blocks[0]
        assert block.cumulative_lost == 2
        assert block.fraction_lost == pytest.approx(2 / 5)

    def test_rtcp_interval_respects_minimum(self):
        assert rtcp_interval_s(600_000.0, members=2) == 5.0

    def test_rtcp_interval_scales_with_members(self):
        small = rtcp_interval_s(64_000.0, members=10)
        large = rtcp_interval_s(64_000.0, members=10_000)
        assert large > small
