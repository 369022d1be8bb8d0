"""Unit tests for NIC serialization and drop-tail queueing."""

import pytest

from repro.simnet.kernel import Simulator
from repro.simnet.link import LinkProfile
from repro.simnet.nic import Nic
from repro.simnet.packet import Address, Datagram


def make_nic(sim, rate_bps=8000.0, queue_limit=10**9):
    """A bare NIC whose hook records ``(datagram, tx_done)``: serialization
    is arithmetic, so the completion time is the observable, not an event."""
    delivered = []
    link = LinkProfile(bandwidth_bps=rate_bps, latency_s=0.0)
    nic = Nic(
        sim, link, lambda d, tx_done: delivered.append((d, tx_done)),
        queue_limit_bytes=queue_limit,
    )
    return nic, delivered


def dgram(size=1000):
    return Datagram(Address("a", 1), Address("b", 2), b"x", size)


def test_serialization_time_matches_rate():
    sim = Simulator()
    nic, delivered = make_nic(sim, rate_bps=8000.0)  # 1000 bytes/s
    nic.enqueue(dgram(size=500))
    assert [tx_done for _d, tx_done in delivered] == [pytest.approx(0.5)]
    assert sim.pending() == 0  # no kernel event of its own


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    nic, delivered = make_nic(sim, rate_bps=8000.0)
    for _ in range(3):
        nic.enqueue(dgram(size=1000))
    times = [tx_done for _d, tx_done in delivered]
    assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_queue_limit_tail_drops():
    sim = Simulator()
    nic, _ = make_nic(sim, queue_limit=1500)
    assert nic.enqueue(dgram(size=1000)) is True  # in service immediately
    assert nic.enqueue(dgram(size=1000)) is True  # queued (1000 <= 1500)
    assert nic.enqueue(dgram(size=1000)) is False  # queue full
    assert nic.dropped_packets == 1


def test_stats_accumulate():
    sim = Simulator()
    nic, delivered = make_nic(sim)
    nic.enqueue(dgram(size=100))
    nic.enqueue(dgram(size=200))
    assert nic.sent_packets == 2
    assert nic.sent_bytes == 300
    assert len(delivered) == 2


def test_queue_drains_and_accepts_more():
    sim = Simulator()
    nic, delivered = make_nic(sim, queue_limit=1000)
    nic.enqueue(dgram(size=1000))
    nic.enqueue(dgram(size=1000))
    assert nic.enqueue(dgram(size=1000)) is False  # still queued behind
    sim.run(until=2.0)  # both have left the wire
    assert nic.enqueue(dgram(size=1000)) is True
    assert len(delivered) == 3
