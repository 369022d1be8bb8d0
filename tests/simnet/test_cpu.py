"""Unit tests for the CPU model and GC pauses, and the completions that
run in place of their kernel event."""

import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet import Address, LinkProfile, Network, SeededStreams
from repro.simnet.cpu import Cpu, GcProfile
from repro.simnet.kernel import SimulationError, Simulator


def test_single_task_completes_after_service_time():
    sim = Simulator()
    cpu = Cpu(sim)
    done = []
    cpu.execute(0.5, lambda: done.append(sim.now))
    sim.run()
    assert done == [0.5]


def test_fifo_queueing_delays_later_tasks():
    sim = Simulator()
    cpu = Cpu(sim)
    done = []
    cpu.execute(1.0, lambda: done.append(("a", sim.now)))
    cpu.execute(1.0, lambda: done.append(("b", sim.now)))
    cpu.execute(0.5, lambda: done.append(("c", sim.now)))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0), ("c", 2.5)]


def test_tasks_submitted_later_start_after_queue_drains():
    sim = Simulator()
    cpu = Cpu(sim)
    done = []
    cpu.execute(1.0, lambda: done.append(sim.now))
    sim.schedule(0.2, lambda: cpu.execute(1.0, lambda: done.append(sim.now)))
    sim.run()
    # Second task arrives at 0.2 while CPU busy until 1.0; finishes at 2.0.
    assert done == [1.0, 2.0]


def test_idle_cpu_runs_new_task_immediately():
    sim = Simulator()
    cpu = Cpu(sim)
    done = []
    cpu.execute(0.3, lambda: done.append(sim.now))
    sim.run()
    cpu.execute(0.3, lambda: done.append(sim.now))
    sim.run()
    assert done == [0.3, 0.6]


def test_negative_cost_rejected():
    cpu = Cpu(Simulator())
    with pytest.raises(ValueError):
        cpu.execute(-1.0, lambda: None)


def test_busy_time_accounting():
    sim = Simulator()
    cpu = Cpu(sim)
    cpu.execute(0.25, lambda: None)
    cpu.execute(0.75, lambda: None)
    sim.run()
    assert cpu.busy_time == pytest.approx(1.0)
    assert cpu.tasks_executed == 2


def test_gc_pause_triggers_after_allocation_budget():
    sim = Simulator()
    profile = GcProfile(young_gen_bytes=1000, base_pause_s=0.05, pause_per_mb_s=0.0)
    cpu = Cpu(sim, gc_profile=profile)
    cpu.allocate(600)
    assert cpu.gc_pauses == 0
    cpu.allocate(600)  # crosses the budget
    assert cpu.gc_pauses == 1
    done = []
    cpu.execute(0.0, lambda: done.append(sim.now))
    sim.run()
    # The GC pause occupies the CPU first, delaying the zero-cost task.
    assert done == [pytest.approx(0.05)]


def test_gc_pause_duration_scales_with_reclaimed_bytes():
    profile = GcProfile(base_pause_s=0.01, pause_per_mb_s=0.01, max_pause_s=1.0)
    small = profile.pause_for(1024 * 1024)
    large = profile.pause_for(10 * 1024 * 1024)
    assert large > small
    assert small == pytest.approx(0.02)


def test_gc_pause_capped_at_max():
    profile = GcProfile(base_pause_s=0.01, pause_per_mb_s=1.0, max_pause_s=0.1)
    assert profile.pause_for(100 * 1024 * 1024) == 0.1


def test_no_gc_without_profile():
    cpu = Cpu(Simulator())
    cpu.allocate(10**9)
    assert cpu.gc_pauses == 0


def test_allocation_counter_resets_after_gc():
    sim = Simulator()
    cpu = Cpu(sim, gc_profile=GcProfile(young_gen_bytes=100))
    cpu.allocate(100)
    cpu.allocate(50)
    assert cpu.gc_pauses == 1
    cpu.allocate(50)
    assert cpu.gc_pauses == 2  # 50 + 50 crosses the budget again


# ------------------------------------------------- completions in place

_traffic = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**32),
    "hosts": st.lists(
        st.tuples(
            st.sampled_from((0.0, 0.0005)),  # jitter
            st.sampled_from((0.0, 0.0, 0.2)),  # loss
            st.sampled_from((0.0, 5e-6, 2e-4)),  # receive cost
            st.sampled_from((None, 3000)),  # young generation, bytes
        ),
        min_size=2,
        max_size=5,
    ),
    "boundaries": st.lists(
        st.floats(min_value=0.0, max_value=0.02), max_size=4
    ).map(sorted),
})


def drain_by_run(sim, until=None):
    sim.run(until=until)


def drain_by_step(sim, until=None):
    """One event at a time, never ahead: ``step()``, or a one-event
    ``run(until=)`` to stop at a boundary."""
    if until is None:
        while sim.step():
            pass
    else:
        while sim.run(until=until, max_events=1):
            pass


def drain_by_max_events(sim, until=None):
    while True:
        before = sim.events_processed
        executed = sim.run(until=until, max_events=7)
        assert sim.events_processed - before == executed <= 7
        if executed < 7:
            return


def traffic(scenario, drain):
    """Hosts on jittered, lossy links trade datagrams.  Every arrival and
    every CPU item draws what happens next from one seeded stream: another
    datagram, CPU work (some of it free), an allocation that may trip a GC
    pause, a fan-out train, a timer, or a cancel; six kick-offs each do
    at least one.  Any change in firing order changes everything after it.  Returns the log of what ran when,
    each host's CPU tallies and stream, and the kernel's event count."""
    sim = Simulator()
    net = Network(sim, SeededStreams(scenario["seed"]))
    rng = random.Random(scenario["seed"])
    hosts = [
        net.create_host(
            f"h{n}",
            link=LinkProfile(latency_s=0.0002, jitter_s=jitter, loss_rate=loss),
            recv_cpu_cost_s=cost,
            gc_profile=None if young is None else GcProfile(young_gen_bytes=young),
        )
        for n, (jitter, loss, cost, young) in enumerate(scenario["hosts"])
    ]
    log = []
    timers = []
    budget = [300]

    def react(host, tag, least=0):
        log.append((sim.now, host.name, tag))
        for _ in range(max(least, rng.randrange(3))):
            if budget[0] == 0:
                return
            budget[0] -= 1
            action = rng.randrange(6)
            if action == 0:
                dst = rng.choice(hosts).name
                host.send(1, Address(dst, 1), budget[0], rng.choice((100, 1400)))
            elif action == 1:
                cost = rng.choice((0.0, 1e-5, 3e-4))
                host.cpu.execute(cost, react, host, budget[0])
            elif action == 2:
                host.cpu.allocate(1000)
            elif action == 3:
                sends = [
                    functools.partial(host.send, 1, Address(dst.name, 1))
                    for dst in rng.sample(hosts, rng.randrange(1, len(hosts) + 1))
                ]
                host.cpu.execute_train(2e-5, sends, (budget[0], 200), 500)
            elif action == 4:
                delay = rng.choice((0.0, rng.uniform(0.0, 0.002)))
                timers.append(sim.schedule(delay, react, host, budget[0]))
            elif timers:
                timers.pop(rng.randrange(len(timers))).cancel()

    for host in hosts:
        host.bind(1, lambda datagram, host=host: react(host, datagram.payload))
    for n in range(6):
        sim.schedule(rng.uniform(0.0, 0.01), react, rng.choice(hosts), -n, 1)
    for until in scenario["boundaries"]:
        drain(sim, until)
        log.append(("boundary", sim.now))
    drain(sim)
    assert budget[0] < 300
    return {
        "log": log,
        "now": sim.now,
        "hosts": [
            (
                host.name, host.cpu.tasks_executed, host.cpu.busy_time,
                host.cpu.gc_pauses, host.cpu.gc_pause_time,
                host.received_packets,
                net.draws(host.name).getstate(),
            )
            for host in hosts
        ],
        "events": sim.events_processed,
    }


@settings(deadline=None, max_examples=60)
@given(_traffic)
@example({  # two trains on h0 and h4 end at one instant
    "seed": 119576892,
    "hosts": [(0.0, 0.2, 0.0, None)] + [(0.0, 0.0, 0.0, None)] * 2
    + [(0.0, 0.0, 0.0, 3000), (0.0, 0.0, 0.0, None)],
    "boundaries": [],
})
def test_completions_in_place_change_nothing_but_the_event_count(scenario):
    """``step()`` never runs a completion in place (nor a train ahead of
    the clock); ``run()`` does whenever the completion is provably next.
    Both must show the same log, clocks, tallies and streams."""
    by_run = traffic(scenario, drain_by_run)
    by_step = traffic(scenario, drain_by_step)
    assert by_run.pop("events") <= by_step.pop("events")
    assert by_run == by_step


@settings(deadline=None, max_examples=20)
@given(_traffic)
def test_run_with_max_events_dispatches_exactly_that_many(scenario):
    by_max_events = traffic(scenario, drain_by_max_events)
    by_step = traffic(scenario, drain_by_step)
    assert by_max_events == by_step  # event counts included: no look-ahead


def test_an_idle_receiver_finishes_in_place():
    """A lone datagram: its arrival is an event, the receive completes in
    it.  A run bounded before the completion is due posts it instead."""
    def lone(until):
        sim = Simulator()
        net = Network(sim, SeededStreams(1))
        a, b = net.create_host("a"), net.create_host("b", recv_cpu_cost_s=1e-3)
        got = []
        b.bind(1, lambda datagram: got.append(sim.now))
        sim.schedule(0.0, a.send, 1, Address("b", 1), "x", 100)
        sim.run(until=until)
        return got, sim.events_processed

    got, events = lone(until=None)
    assert events == 2  # the send and the arrival, not the receive
    arrived = got[0] - 1e-3
    got_bounded, events_bounded = lone(until=arrived + 5e-4)
    assert got_bounded == [] and events_bounded == 2  # posted, not run


def test_a_receive_due_with_the_heap_head_waits_its_turn():
    """A free receive on an idle CPU is due at its arrival time; a timer
    already queued for that same instant runs first, as it would if the
    completion had been posted (it has the higher ``seq``)."""
    def order(drain):
        sim = Simulator()
        net = Network(sim, SeededStreams(1))
        host = net.create_host("h")
        log = []
        host.bind(1, lambda datagram: log.append("receive"), recv_cpu_cost_s=0.0)

        def send_and_arm():
            host.send(2, Address("h", 1), "x", 100)  # loopback
            sim.schedule(host.LOOPBACK_LATENCY_S, log.append, "timer")

        sim.schedule(0.5, send_and_arm)
        drain(sim)
        return log

    assert order(drain_by_run) == order(drain_by_step) == ["timer", "receive"]


def test_a_train_that_posts_past_its_seq_block_raises():
    """A train reserves 64 ``seq`` numbers an item when queued; items
    that post more would take numbers the kernel hands out after it."""
    sim = Simulator()
    cpu = Cpu(sim)

    def flood():
        for _ in range(200):
            sim.post(1.0, lambda: None)

    cpu.execute_train(1e-3, [flood, flood], ())
    with pytest.raises(SimulationError):
        sim.run()
