"""Reliable and ordered delivery QoS."""

import pytest

from repro.broker import Broker, BrokerClient, BrokerNetwork
from repro.simnet import LinkProfile, Network, SeededStreams, Simulator


def lossy_setup(seed=11, loss=0.25):
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    pub_host = net.create_host("pub-host")
    sub_host = net.create_host("sub-host", link=LinkProfile(loss_rate=loss))
    publisher = BrokerClient(pub_host, client_id="pub")
    subscriber = BrokerClient(sub_host, client_id="sub")
    publisher.connect(broker)
    subscriber.connect(broker)
    # The client retries Connect until acknowledged, even on lossy links.
    sim.run_for(15.0)
    assert publisher.connected and subscriber.connected
    return sim, net, broker, publisher, subscriber


def test_unreliable_events_lost_on_lossy_link():
    sim, net, broker, publisher, subscriber = lossy_setup(seed=5, loss=0.3)
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(2.0)
    for i in range(100):
        publisher.publish("/t", i, 100)
    sim.run_for(5.0)
    assert 30 < len(got) < 95  # substantial loss, no recovery


def test_reliable_events_all_arrive_despite_loss():
    sim, net, broker, publisher, subscriber = lossy_setup(seed=6, loss=0.3)
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(2.0)
    for i in range(50):
        publisher.publish("/t", i, 100, reliable=True)
    sim.run_for(30.0)
    assert sorted(e.payload for e in got) == list(range(50))
    # No duplicates delivered to the application.
    assert len(got) == 50


def test_ordered_events_delivered_in_sequence(net, sim, single_broker=None):
    broker = Broker(net.create_host("bh"), broker_id="b0")
    publisher = BrokerClient(net.create_host("ph"), client_id="pub")
    subscriber = BrokerClient(net.create_host("sh"), client_id="sub")
    publisher.connect(broker)
    subscriber.connect(broker)
    sim.run_for(1.0)
    got = []
    subscriber.subscribe("/ord", lambda e: got.append(e.sequence))
    sim.run_for(1.0)
    for i in range(30):
        publisher.publish("/ord", i, 50, ordered=True)
    sim.run_for(2.0)
    assert got == list(range(30))


def test_ordered_across_brokers_single_sequencer(net, sim):
    bnet = BrokerNetwork.chain(net, 3)
    pub_a = BrokerClient(net.create_host("pa"), client_id="pa")
    pub_b = BrokerClient(net.create_host("pb"), client_id="pb")
    subscriber = BrokerClient(net.create_host("sh"), client_id="sub")
    pub_a.connect(bnet.broker("broker-0"))
    pub_b.connect(bnet.broker("broker-2"))
    subscriber.connect(bnet.broker("broker-1"))
    sim.run_for(1.0)
    got = []
    subscriber.subscribe("/ord", lambda e: got.append(e.sequence))
    sim.run_for(1.0)
    # Interleave publishers on different brokers.
    for i in range(10):
        pub_a.publish("/ord", ("a", i), 50, ordered=True)
        pub_b.publish("/ord", ("b", i), 50, ordered=True)
    sim.run_for(3.0)
    assert len(got) == 20
    # A single sequencer stamped a gap-free, strictly increasing sequence,
    # and the ordered inbox released events in that order.
    assert got == sorted(got)
    assert sorted(got) == list(range(20))


def test_sequencer_election_is_deterministic(net, sim):
    bnet = BrokerNetwork.chain(net, 3)
    brokers = bnet.brokers()
    choices = {broker.sequencer_for("/some/topic") for broker in brokers}
    assert len(choices) == 1


def test_ordered_inbox_flushes_gaps():
    from repro.broker.event import NBEvent
    from repro.broker.reliable import OrderedInbox

    sim = Simulator()
    delivered = []
    inbox = OrderedInbox(sim, delivered.append, gap_timeout_s=0.5)

    def event(sequence):
        return NBEvent("/t", sequence, 10, sequence=sequence)

    inbox.accept(event(0))
    inbox.accept(event(2))  # gap: 1 missing
    inbox.accept(event(3))
    sim.run_for(0.1)
    assert [e.sequence for e in delivered] == [0]
    sim.run_for(1.0)  # gap timer fires
    assert [e.sequence for e in delivered] == [0, 2, 3]
    assert inbox.gaps_flushed == 1
    # The straggler shows up late: dropped as stale.
    inbox.accept(event(1))
    assert inbox.stale_dropped == 1


def test_reliable_outbox_abandons_after_max_retries():
    from repro.broker.event import NBEvent
    from repro.broker.reliable import ReliableOutbox

    sim = Simulator()
    sent = []
    outbox = ReliableOutbox(sim, sent.append, resend_interval_s=0.1, max_retries=3)
    outbox.send(NBEvent("/t", b"", 10))
    sim.run_for(10.0)
    assert len(sent) == 4  # initial + 3 retries
    assert outbox.abandoned == 1
    assert outbox.pending_count == 0


def test_reliable_outbox_on_abandon_callback():
    from repro.broker.event import NBEvent
    from repro.broker.reliable import ReliableOutbox

    sim = Simulator()
    abandoned = []
    outbox = ReliableOutbox(
        sim, lambda e: None, resend_interval_s=0.1, max_retries=2,
        on_abandon=abandoned.append,
    )
    event = NBEvent("/t", b"", 10)
    outbox.send(event)
    sim.run_for(10.0)
    assert abandoned == [event]
    assert outbox.abandoned == 1


def test_ordered_inbox_repeated_gaps_reschedule_timer():
    """A flush that still leaves a hole re-arms the gap timer, so every
    buffered event is eventually released."""
    from repro.broker.event import NBEvent
    from repro.broker.reliable import OrderedInbox

    sim = Simulator()
    delivered = []
    inbox = OrderedInbox(
        sim, lambda e: delivered.append(e.sequence), gap_timeout_s=0.5
    )

    def event(sequence):
        return NBEvent("/t", sequence, 10, sequence=sequence)

    inbox.accept(event(0))
    inbox.accept(event(2))  # hole at 1
    inbox.accept(event(4))  # hole at 3
    sim.run_for(0.6)  # first flush: skips to 2, hole at 3 remains
    assert delivered == [0, 2]
    assert inbox.gaps_flushed == 1
    sim.run_for(0.5)  # rescheduled timer flushes the second hole
    assert delivered == [0, 2, 4]
    assert inbox.gaps_flushed == 2


def test_ordered_inbox_cancels_timer_when_gap_fills():
    from repro.broker.event import NBEvent
    from repro.broker.reliable import OrderedInbox

    sim = Simulator()
    delivered = []
    inbox = OrderedInbox(
        sim, lambda e: delivered.append(e.sequence), gap_timeout_s=0.5
    )

    def event(sequence):
        return NBEvent("/t", sequence, 10, sequence=sequence)

    inbox.accept(event(0))
    inbox.accept(event(2))  # gap opens, timer armed
    inbox.accept(event(1))  # gap fills, buffer drains, timer cancelled
    assert delivered == [0, 1, 2]
    sim.run_for(2.0)  # well past the gap timeout
    assert inbox.gaps_flushed == 0
    assert inbox.stale_dropped == 0


def test_ordered_inbox_stale_drops_after_each_flush():
    from repro.broker.event import NBEvent
    from repro.broker.reliable import OrderedInbox

    sim = Simulator()
    delivered = []
    inbox = OrderedInbox(
        sim, lambda e: delivered.append(e.sequence), gap_timeout_s=0.5
    )

    def event(sequence):
        return NBEvent("/t", sequence, 10, sequence=sequence)

    inbox.accept(event(3))
    sim.run_for(0.6)  # flush skips straight to 3
    assert delivered == [3]
    # Every straggler below the flushed point is stale, repeatedly.
    for sequence in (0, 1, 2):
        inbox.accept(event(sequence))
    assert inbox.stale_dropped == 3
    assert delivered == [3]


def test_ordered_inbox_reset_flushes_buffer_and_forgets_sequence():
    """Failover semantics: reset releases everything buffered in order
    and accepts the new broker's numbering from zero."""
    from repro.broker.event import NBEvent
    from repro.broker.reliable import OrderedInbox

    sim = Simulator()
    delivered = []
    inbox = OrderedInbox(
        sim, lambda e: delivered.append(e.sequence), gap_timeout_s=0.5
    )

    def event(sequence):
        return NBEvent("/t", sequence, 10, sequence=sequence)

    inbox.accept(event(0))
    inbox.accept(event(5))
    inbox.accept(event(3))  # both buffered behind the hole at 1
    assert delivered == [0]
    inbox.reset()
    assert delivered == [0, 3, 5]  # buffered events flushed in order
    # The new sequencer numbers from zero: not stale, no timer pending.
    inbox.accept(event(0))
    assert delivered == [0, 3, 5, 0]
    assert inbox.stale_dropped == 0
    sim.run_for(2.0)
    assert inbox.gaps_flushed == 0


def test_ordered_inbox_sequencer_change_restarts_expectations():
    """A re-elected sequencer (mesh failover, partition heal) numbers the
    topic from its own counter; the inbox must flush what it buffered and
    adopt the new numbering instead of treating it as stale/gapped."""
    from repro.broker.event import NBEvent
    from repro.broker.reliable import OrderedInbox

    sim = Simulator()
    delivered = []
    inbox = OrderedInbox(
        sim, lambda e: delivered.append((e.sequenced_by, e.sequence)),
        gap_timeout_s=0.5,
    )

    def event(sequence, sequenced_by):
        return NBEvent(
            "/t", sequence, 10, sequence=sequence, sequenced_by=sequenced_by
        )

    for i in range(5):
        inbox.accept(event(i, "b0"))
    inbox.accept(event(6, "b0"))  # buffered behind the hole at 5
    assert delivered == [("b0", i) for i in range(5)]

    # New sequencer starts over at 0 — far below the old expectation.
    inbox.accept(event(0, "b1"))
    assert inbox.sequencer_changes == 1
    # The old buffered event was flushed, then the new numbering begins.
    assert delivered[-2:] == [("b0", 6), ("b1", 0)]
    assert inbox.stale_dropped == 0
    inbox.accept(event(1, "b1"))
    assert delivered[-1] == ("b1", 1)
    sim.run_for(2.0)
    assert inbox.gaps_flushed == 0


def test_ordered_inbox_sequencer_change_is_per_topic():
    from repro.broker.event import NBEvent
    from repro.broker.reliable import OrderedInbox

    sim = Simulator()
    delivered = []
    inbox = OrderedInbox(
        sim, lambda e: delivered.append((e.topic, e.sequence)), gap_timeout_s=0.5
    )

    def event(topic, sequence, sequenced_by):
        return NBEvent(
            topic, sequence, 10, sequence=sequence, sequenced_by=sequenced_by
        )

    inbox.accept(event("/a", 0, "b0"))
    inbox.accept(event("/b", 0, "b0"))
    inbox.accept(event("/a", 0, "b1"))  # only /a re-sequenced
    assert inbox.sequencer_changes == 1
    inbox.accept(event("/b", 1, "b0"))  # /b unaffected, still in order
    assert delivered == [("/a", 0), ("/b", 0), ("/a", 0), ("/b", 1)]


def test_outbox_overflow_drops_oldest_without_abandon_callback():
    from repro.broker.event import NBEvent
    from repro.broker.reliable import ReliableOutbox

    sim = Simulator()
    sent, abandoned = [], []
    outbox = ReliableOutbox(
        sim, sent.append, max_pending=3, on_abandon=abandoned.append
    )
    events = [NBEvent("/t", i, 10) for i in range(5)]
    for event in events:
        outbox.send(event)
    # The two oldest were evicted; the three newest are still tracked.
    assert outbox.pending_count == 3
    assert outbox.overflows == 2
    assert abandoned == []  # congestion is not link death
    for event in events[:2]:
        outbox.ack(event.event_id)  # acks for evicted ids are no-ops
    assert outbox.pending_count == 3
    for event in events[2:]:
        outbox.ack(event.event_id)
    assert outbox.pending_count == 0
    # Evicted entries' timers were cancelled: nothing left retransmits.
    sim.run_for(30.0)
    assert outbox.retransmissions == 0
    assert len(sent) == 5


def test_outboxes_keep_a_shared_tally():
    """Every path that changes an outbox's pending store adjusts the
    owner's tally by the same amount; overflows outlive the outbox."""
    from repro.broker.event import NBEvent
    from repro.broker.reliable import OutboxTally, ReliableOutbox

    sim = Simulator()
    tally = OutboxTally()
    options = dict(resend_interval_s=0.1, max_retries=2, tally=tally)
    first = ReliableOutbox(sim, lambda event: None, max_pending=3, **options)
    second = ReliableOutbox(sim, lambda event: None, **options)

    def pending():
        return first.pending_count + second.pending_count

    events = [NBEvent("/t", n, 10, reliable=True) for n in range(6)]
    for event in events[:5]:
        first.send(event)  # two overflow evictions: depth stays 3
    second.send(events[5])
    second.send(events[5])  # same id again: still one entry
    assert (tally.pending, tally.overflows) == (pending(), 2) == (4, 2)
    first.ack(events[4].event_id)
    first.ack(events[4].event_id)  # duplicate ack: no-op
    first.ack(events[0].event_id)  # evicted long ago: no-op
    assert tally.pending == pending() == 3
    sim.run_for(0.15)  # one retransmission each: nothing leaves
    assert first.retransmissions == 2 and tally.pending == pending() == 3
    first.close()
    assert tally.pending == pending() == 1
    first.send(events[0])  # queued before the close, run after it
    assert tally.pending == 1 and first.pending_count == 1
    sim.run_for(5.0)  # retries exhausted everywhere
    assert second.abandoned == 1
    assert (tally.pending, tally.overflows) == (0, 2)


def test_outbox_max_pending_validated():
    from repro.broker.reliable import ReliableOutbox

    with pytest.raises(ValueError):
        ReliableOutbox(Simulator(), lambda event: None, max_pending=0)
