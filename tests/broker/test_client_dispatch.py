"""``BrokerClient`` handler dispatch: registration order, and what a
handler that subscribes or unsubscribes *during* a dispatch sees.

The client remembers, per topic, which handlers its current handler list
matches.  These pin the behaviour that memo must keep: the walk is over
the list as it stood when the event arrived, plus whatever a handler
appended to that same list while the walk ran.
"""

import pytest

from tests.broker.conftest import make_client


@pytest.fixture
def pubsub(net, sim, single_broker):
    """(publish-and-settle, subscriber client) on one broker."""
    publisher = make_client(net, sim, single_broker, "pub")
    subscriber = make_client(net, sim, single_broker, "sub")

    def publish(topic, payload):
        publisher.publish(topic, payload, 50)
        sim.run_for(1.0)

    return publish, subscriber


def recorder(log, name):
    return lambda event: log.append((name, event.payload))


def test_overlapping_patterns_dispatch_in_registration_order(pubsub, sim):
    publish, client = pubsub
    log = []
    client.subscribe("/a/#", recorder(log, "hash"))
    client.subscribe("/a/*", recorder(log, "star"))
    client.subscribe("/b", recorder(log, "other"))
    client.subscribe("/a/x", recorder(log, "exact"))
    sim.run_for(1.0)
    for payload in (1, 2):  # the second comes from the memo
        publish("/a/x", payload)
    publish("/a/x/y", 3)
    assert log == [
        ("hash", 1), ("star", 1), ("exact", 1),
        ("hash", 2), ("star", 2), ("exact", 2),
        ("hash", 3),
    ]


def test_handler_subscribed_during_dispatch_gets_the_current_event(pubsub, sim):
    publish, client = pubsub
    log = []
    late = recorder(log, "late")

    def first(event):
        log.append(("first", event.payload))
        if event.payload == 2:
            client.subscribe("/a/#", late)
            client.subscribe("/elsewhere", recorder(log, "miss"))

    client.subscribe("/a/x", first)
    sim.run_for(1.0)
    for payload in (1, 2, 3):
        publish("/a/x", payload)
    assert log == [
        ("first", 1),
        ("first", 2), ("late", 2),
        ("first", 3), ("late", 3),
    ]


def test_handler_unsubscribed_during_dispatch_still_gets_the_current_event(
    pubsub, sim
):
    publish, client = pubsub
    log = []
    later = recorder(log, "later")

    def first(event):
        log.append(("first", event.payload))
        if event.payload == 2:
            client.unsubscribe("/a/*", later)

    client.subscribe("/a/x", first)
    client.subscribe("/a/*", later)
    sim.run_for(1.0)
    for payload in (1, 2, 3):
        publish("/a/x", payload)
    assert log == [
        ("first", 1), ("later", 1),
        ("first", 2), ("later", 2),
        ("first", 3),
    ]


@pytest.mark.parametrize("subscribe_first", [True, False])
def test_handler_that_does_both_during_dispatch(pubsub, sim, subscribe_first):
    """``subscribe`` appends to the current handler list and
    ``unsubscribe`` rebinds it: a handler subscribed *before* the
    unsubscribe call lands on the list being walked and sees the current
    event; one subscribed *after* lands on the replacement and waits for
    the next.  The unsubscribed handler still sees the current event
    either way."""
    publish, client = pubsub
    log = []
    later = recorder(log, "later")
    fresh = recorder(log, "fresh")

    def first(event):
        log.append(("first", event.payload))
        if event.payload == 2:
            if subscribe_first:
                client.subscribe("/a/#", fresh)
                client.unsubscribe("/a/*", later)
            else:
                client.unsubscribe("/a/*", later)
                client.subscribe("/a/#", fresh)

    client.subscribe("/a/x", first)
    client.subscribe("/a/*", later)
    sim.run_for(1.0)
    for payload in (1, 2, 3):
        publish("/a/x", payload)
    current = [("fresh", 2)] if subscribe_first else []
    assert log == [
        ("first", 1), ("later", 1),
        ("first", 2), ("later", 2), *current,
        ("first", 3), ("fresh", 3),
    ]


def test_memo_is_dropped_by_subscribe_and_both_unsubscribe_forms(pubsub, sim):
    publish, client = pubsub
    log = []
    one, two, three = (recorder(log, name) for name in ("one", "two", "three"))
    client.subscribe("/a/x", one)
    client.subscribe("/a/x", two)
    sim.run_for(1.0)
    publish("/a/x", 1)
    assert "/a/x" in client._memo
    client.subscribe("/a/#", three)
    sim.run_for(1.0)
    publish("/a/x", 2)
    client.unsubscribe("/a/x", one)
    publish("/a/x", 3)
    client.unsubscribe("/a/x")
    publish("/a/x", 4)
    assert log == [
        ("one", 1), ("two", 1),
        ("one", 2), ("two", 2), ("three", 2),
        ("two", 3), ("three", 3),
        ("three", 4),
    ]
    assert client.events_received == 4
