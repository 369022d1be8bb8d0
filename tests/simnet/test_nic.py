"""Unit tests for NIC serialization and drop-tail queueing.

``Host.send`` does the NIC's arithmetic in the same frame that routes the
datagram, so these drive a host whose link and fabric add no latency: a
datagram then arrives exactly when its last bit left the wire.
"""

import pytest

from repro.simnet import Address, LinkProfile, Network, SeededStreams, Simulator


def make_nic(sim, rate_bps=8000.0, queue_limit=10**9):
    """Host a's NIC, the ``(datagram, arrival)`` log of host b (with no
    latency anywhere, an arrival time is the NIC's ``tx_done``), and a
    function sending a datagram of a given size from a to b."""
    net = Network(sim, SeededStreams(0), base_latency_s=0.0)
    link = LinkProfile(bandwidth_bps=rate_bps, latency_s=0.0)
    a = net.create_host("a", link=link)
    a.nic.queue_limit_bytes = queue_limit
    delivered = []
    net.create_host("b", link=link).bind(
        2, lambda d: delivered.append((d, sim.now)), recv_cpu_cost_s=0.0
    )

    def enqueue(size=1000):
        return a.send(1, Address("b", 2), b"x", size)

    return a.nic, delivered, enqueue


def test_serialization_time_matches_rate():
    sim = Simulator()
    nic, delivered, enqueue = make_nic(sim, rate_bps=8000.0)  # 1000 bytes/s
    enqueue(size=500)
    assert sim.pending() == 1  # the arrival: no kernel event of its own
    sim.run()
    assert [tx_done for _d, tx_done in delivered] == [pytest.approx(0.5)]


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    nic, delivered, enqueue = make_nic(sim, rate_bps=8000.0)
    for _ in range(3):
        enqueue(size=1000)
    sim.run()
    times = [tx_done for _d, tx_done in delivered]
    assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_queue_limit_tail_drops():
    sim = Simulator()
    nic, _, enqueue = make_nic(sim, queue_limit=1500)
    assert enqueue(size=1000) is True  # in service immediately
    assert enqueue(size=1000) is True  # queued (1000 <= 1500)
    assert enqueue(size=1000) is False  # queue full
    assert nic.dropped_packets == 1
    assert (nic.queued_bytes, nic.queue_depth) == (1000, 1)


def test_stats_accumulate():
    sim = Simulator()
    nic, delivered, enqueue = make_nic(sim)
    enqueue(size=100)
    enqueue(size=200)
    assert nic.sent_packets == 2
    assert nic.sent_bytes == 300
    sim.run()
    assert len(delivered) == 2


def test_queue_drains_and_accepts_more():
    sim = Simulator()
    nic, delivered, enqueue = make_nic(sim, queue_limit=1000)
    enqueue(size=1000)
    enqueue(size=1000)
    assert enqueue(size=1000) is False  # still queued behind
    sim.run(until=2.0)  # both have left the wire
    assert enqueue(size=1000) is True
    sim.run()
    assert len(delivered) == 3


def test_an_oversized_datagram_is_dropped_by_an_idle_nic():
    sim = Simulator()
    nic, delivered, enqueue = make_nic(sim, queue_limit=999)
    assert enqueue(size=1000) is False
    assert enqueue(size=999) is True
    sim.run()
    assert (nic.dropped_packets, len(delivered)) == (1, 1)
