"""Unit tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.simnet.kernel import SimulationError, Simulator


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_executes_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_schedule_with_args():
    sim = Simulator()
    out = []
    sim.schedule(0.5, lambda a, b: out.append(a + b), 2, 3)
    sim.run()
    assert out == [5]


class _Payload:
    """A timer argument that takes weak references."""


@pytest.mark.parametrize("drain", ["run", "step"])
def test_a_fired_timer_lets_go_of_its_arguments(drain):
    # With the collector off, only reference counts free the argument: the
    # fired timer still sits in the kernel's horizon heap (nothing has
    # scheduled or read the horizon since), and must hold nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator()
        payload = _Payload()
        gone = weakref.ref(payload)
        timer = sim.schedule(0.5, lambda arg: None, payload)
        del payload
        if drain == "run":
            sim.run_for(1.0)
        else:
            assert sim.step()
        assert timer in sim._timers  # not popped yet: the case at issue
        assert gone() is None
        assert timer[2] is None  # and it reads as fired
    finally:
        if enabled:
            gc.enable()


def test_schedule_reserved_takes_the_place_of_its_reservation():
    # A callback armed later with a number reserved earlier runs where a
    # timer scheduled at the reservation would have: before what was
    # scheduled for the same instant after it.
    sim = Simulator()
    fired = []
    reserved = sim._next_seq
    sim._next_seq = reserved + 1
    sim.schedule(1.0, fired.append, "after")
    sim.schedule_reserved(1.0, reserved, fired.append, "reserved")
    sim.run()
    assert fired == ["reserved", "after"]
    with pytest.raises(SimulationError):
        sim.schedule_reserved(0.5, sim._next_seq, fired.append, "past")


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, lambda: fired.append("x"))
    timer.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    executed = sim.run(until=2.0)
    assert executed == 1
    assert fired == [1]
    assert sim.now == 2.0  # time advances to the until bound
    sim.run()
    assert fired == [1, 5]


def test_run_for_advances_relative_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=1.0)
    sim.run_for(2.5)
    assert sim.now == 3.5


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 4.0


def test_max_events_bounds_execution():
    sim = Simulator()
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    assert sim.run(max_events=3) == 3
    assert sim.pending() == 7


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_time_is_monotonic_across_many_events():
    sim = Simulator()
    times = []
    import random

    rng = random.Random(7)
    for _ in range(200):
        sim.schedule(rng.uniform(0, 10), lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert sim.events_processed == 200


def drain_seeded_schedule(drain):
    """A seeded schedule whose events arm more events — half through
    ``schedule`` (a cancellable ``Timer``), half through handle-free
    ``post``, many at equal times — cancel live timers (often enough to
    force heap compaction) and re-enter ``run()``; every random draw
    happens inside a callback, so any difference in firing order changes
    everything after it.  Arming order is ``seq`` order, so the returned
    ``(time, arming index, kind)`` firing order is the ``(time, seq)``
    order; the kernel's counters come with it."""
    import random

    sim = Simulator()
    rng = random.Random(42)
    fired = []
    live = []
    state = {"budget": 600, "armed": 0, "nested": False}

    def arm(delay):
        index = state["armed"]
        state["armed"] += 1
        if rng.random() < 0.5:
            sim.post(delay, fire, (index, "post"))
        else:
            live.append(sim.schedule(delay, fire, index, "timer"))
            assert live[-1].seq == index

    def fire(index, kind):
        fired.append((sim.now, index, kind))
        for _ in range(rng.randrange(3)):
            if state["budget"] > 0:
                state["budget"] -= 1
                arm(rng.choice((0.0, 0.25, rng.uniform(0.0, 2.0))))
        for _ in range(rng.randrange(4)):
            if live:
                live.pop(rng.randrange(len(live))).cancel()
        if not state["nested"] and rng.random() < 0.1:
            state["nested"] = True
            if rng.random() < 0.5:
                sim.run(max_events=rng.randrange(1, 4))
            else:
                sim.run(until=sim.now + rng.uniform(0.0, 0.5))
            state["nested"] = False

    for _ in range(300):
        arm(rng.choice((1.0, 2.5, rng.uniform(0.0, 5.0))))
    drain(sim)
    assert sim.pending() == 0
    return fired, (
        sim.events_processed,
        sim.timers_cancelled,
        sim.heap_compactions,
        sim.now,
    )


def test_run_matches_one_event_at_a_time_stepping():
    """``step()`` is the reference dispatch — pop one event, fire it —
    and the hoisted-locals drain in ``run()`` must be indistinguishable
    from calling it in a loop."""
    def by_step(sim):
        while sim.step():
            pass

    by_run = drain_seeded_schedule(lambda sim: sim.run())
    stepped = drain_seeded_schedule(by_step)
    fired, (events, cancelled, compactions, _now) = by_run
    assert by_run == stepped
    assert events == len(fired) > 300
    assert cancelled > 100 and compactions > 0
    assert fired == sorted(fired)
    kinds = [kind for _time, _index, kind in fired]
    # Most timers die cancelled; posted entries cannot.
    assert kinds.count("post") > 200 and kinds.count("timer") > 40
    times = [time for time, _index, _kind in fired]
    assert len(set(times)) < len(times) - 50  # equal-time ties were drained


def test_post_fires_with_args_in_order_with_schedule():
    sim = Simulator()
    fired = []
    sim.post(1.0, fired.append, ("posted first",))
    sim.schedule(1.0, fired.append, "scheduled second")
    sim.post(1.0, lambda: fired.append("no args third"))
    sim.schedule_at(0.5, fired.append, "earlier")
    assert sim.run() == 4
    assert fired == ["earlier", "posted first", "scheduled second", "no args third"]
    assert sim.events_processed == 4  # both kinds count


def test_post_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-0.1, lambda: None)
    assert sim.pending() == 0


def test_compaction_keeps_every_live_posted_entry():
    sim = Simulator()
    fired = []
    timers = [
        sim.schedule(1.0 + index, fired.append, ("timer", index))
        for index in range(150)
    ]
    for index in range(50):
        sim.post(1.5 + index, fired.append, (("post", index),))
    for timer in timers[:149]:
        timer.cancel()  # ghosts pass half of the 200 queued on the way
    assert sim.heap_compactions > 0
    assert sim.pending() < 100
    sim.run()
    assert fired == [("post", index) for index in range(50)] + [("timer", 149)]
    assert sim.events_processed == 51
