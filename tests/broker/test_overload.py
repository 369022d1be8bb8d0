"""Overload protection: watermarks, priority shedding, admission control.

Three layers of coverage:

* unit — :class:`OverloadController` hysteresis and shed order against
  fake pressure signals (no broker, no network);
* classification — :func:`classify_topic` priority classes;
* integration — a real broker under a publish storm sheds
  lowest-class-first and *deterministically* (same seed, same dropped
  set, both kernel modes), refuses admission with ``Busy`` while
  SHEDDING, and recovers to NORMAL once pressure drains.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker import Broker, BrokerClient, FabricSpec
from repro.broker.event import (
    NBEvent,
    PRIORITY_AUDIO,
    PRIORITY_BULK,
    PRIORITY_CONTROL,
    PRIORITY_VIDEO,
    classify_topic,
)
from repro.broker.overload import (
    DEGRADED,
    NORMAL,
    SHEDDING,
    OverloadController,
    ShedWatermarks,
)
from repro.simnet import LinkProfile, Network, SeededStreams, Simulator

# ----------------------------------------------------------------- units


def controller(pressure, **watermark_kwargs):
    """A controller whose cpu signal reads ``pressure['cpu']`` etc."""
    marks = ShedWatermarks(
        cpu_degraded=10, cpu_shedding=20,
        nic_degraded_bytes=1000, nic_shedding_bytes=2000,
        outbox_degraded=10, outbox_shedding=20, retry_after_s=2.0,
        **watermark_kwargs,
    )
    return OverloadController(
        (
            lambda: pressure.get("cpu", 0),
            lambda: pressure.get("nic", 0),
            lambda: pressure.get("outbox", 0),
        ),
        marks,
    )


def test_escalates_at_enter_marks():
    pressure = {}
    ctrl = controller(pressure)
    assert ctrl.refresh(0.0) == NORMAL
    pressure["cpu"] = 10
    assert ctrl.refresh(1.0) == DEGRADED
    pressure["cpu"] = 20
    assert ctrl.refresh(2.0) == SHEDDING
    assert ctrl.overload_entries == 1  # one episode, not one per step


def test_any_single_signal_escalates():
    for signal in ("cpu", "nic", "outbox"):
        pressure = {signal: 10 ** 9}
        assert controller(pressure).refresh(0.0) == SHEDDING


def test_hysteresis_holds_state_between_clear_and_enter():
    pressure = {"cpu": 10}
    ctrl = controller(pressure)
    assert ctrl.refresh(0.0) == DEGRADED
    # Below the enter mark but above clear_frac * mark: no flapping.
    pressure["cpu"] = 7
    assert ctrl.refresh(1.0) == DEGRADED
    pressure["cpu"] = 4  # < 0.5 * 10
    assert ctrl.refresh(2.0) == NORMAL


def test_recovery_steps_down_one_state_per_refresh():
    pressure = {"cpu": 100}
    ctrl = controller(pressure)
    assert ctrl.refresh(0.0) == SHEDDING
    pressure["cpu"] = 0
    assert ctrl.refresh(1.0) == DEGRADED  # never straight to NORMAL
    assert ctrl.refresh(2.0) == NORMAL


def test_overload_entries_count_episodes():
    pressure = {}
    ctrl = controller(pressure)
    for episode in range(3):
        pressure["cpu"] = 20
        ctrl.refresh(episode)
        pressure["cpu"] = 0
        ctrl.refresh(episode + 0.25)
        ctrl.refresh(episode + 0.5)
    assert ctrl.overload_entries == 3


def test_shed_order_degraded_sheds_bulk_only():
    ctrl = controller({"cpu": 10})
    assert not ctrl.should_shed(PRIORITY_CONTROL, 0.0)
    assert not ctrl.should_shed(PRIORITY_AUDIO, 0.0)
    assert not ctrl.should_shed(PRIORITY_VIDEO, 0.0)
    assert ctrl.should_shed(PRIORITY_BULK, 0.0)
    assert ctrl.events_shed == 1
    assert ctrl.events_shed_bulk == 1


def test_shed_order_shedding_adds_video_never_control_or_audio():
    ctrl = controller({"cpu": 1000})
    assert not ctrl.should_shed(PRIORITY_CONTROL, 0.0)
    assert not ctrl.should_shed(PRIORITY_AUDIO, 0.0)
    assert ctrl.should_shed(PRIORITY_VIDEO, 0.0)
    assert ctrl.should_shed(PRIORITY_BULK, 0.0)
    assert ctrl.events_shed_control == 0
    assert ctrl.events_shed_audio == 0
    assert ctrl.events_shed_video == 1
    assert ctrl.events_shed_bulk == 1


def test_control_and_audio_never_read_the_signals():
    """The CONTROL/AUDIO fast path must not even evaluate pressure —
    that is what makes the controller free on the hot control plane."""
    def boom():
        raise AssertionError("signal read on the control fast path")

    ctrl = OverloadController((boom, boom, boom), ShedWatermarks())
    assert not ctrl.should_shed(PRIORITY_CONTROL, 0.0)
    assert not ctrl.should_shed(PRIORITY_AUDIO, 0.0)


def test_admit_refuses_only_while_shedding():
    pressure = {}
    ctrl = controller(pressure)
    assert ctrl.admit(0.0) == (True, 0.0)
    pressure["cpu"] = 10
    assert ctrl.admit(1.0) == (True, 0.0)  # DEGRADED still admits
    pressure["cpu"] = 20
    admitted, retry_after = ctrl.admit(2.0)
    assert not admitted and retry_after == 2.0
    assert ctrl.admissions_refused == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"clear_frac": 0.0},
        {"clear_frac": 1.5},
        {"cpu_degraded": 0},
        {"cpu_degraded": 10, "cpu_shedding": 5},
        {"nic_degraded_bytes": -1},
        {"outbox_degraded": 100, "outbox_shedding": 50},
        {"retry_after_s": 0.0},
    ],
)
def test_invalid_watermarks_rejected(kwargs):
    with pytest.raises(ValueError):
        ShedWatermarks(**kwargs)


def test_controller_requires_three_signals():
    with pytest.raises(ValueError):
        OverloadController((lambda: 0,), ShedWatermarks())


def test_watermarks_are_frozen():
    """A controller copies its marks when it is built, so a mark changed
    afterwards would silently disagree with the one it enforces."""
    marks = ShedWatermarks(cpu_degraded=3, cpu_shedding=5)
    for name in ShedWatermarks.__slots__:
        with pytest.raises(AttributeError):
            setattr(marks, name, 1)
    assert (marks.cpu_degraded, marks.cpu_shedding, marks.clear_frac) == (3, 5, 0.5)


@pytest.mark.parametrize("signal", ["cpu", "nic", "outbox"])
def test_a_signal_at_its_degraded_mark_leaves_normal(signal):
    """The NORMAL check compares strictly below each mark: a reading
    exactly at one runs the full refresh, which escalates."""
    ctrl = controller({signal: {"cpu": 10, "nic": 1000, "outbox": 10}[signal]})
    assert not ctrl.should_shed(PRIORITY_VIDEO, 1.0)
    assert (ctrl.state, ctrl.state_since, ctrl.overload_entries) == (
        DEGRADED, 1.0, 1,
    )
    assert ctrl.should_shed(PRIORITY_BULK, 2.0)


class ReferenceController:
    """The controller's decisions as they were before NORMAL got its
    one-comparison-per-signal path: every call reads all three signals
    into a tuple and walks the marks with ``any``/``all`` generators."""

    def __init__(self, signals, watermarks):
        self.signals = signals
        self.watermarks = watermarks
        self.retry_after_s = watermarks.retry_after_s
        self.state = NORMAL
        self.state_since = 0.0
        self.overload_entries = 0
        self.events_shed_by_class = [0, 0, 0, 0]
        self.admissions_refused = 0

    def degraded_marks(self):
        w = self.watermarks
        return (w.cpu_degraded, w.nic_degraded_bytes, w.outbox_degraded)

    def shedding_marks(self):
        w = self.watermarks
        return (w.cpu_shedding, w.nic_shedding_bytes, w.outbox_shedding)

    def refresh(self, now):
        readings = tuple(signal() for signal in self.signals)
        level = NORMAL
        if any(r >= m for r, m in zip(readings, self.shedding_marks())):
            level = SHEDDING
        elif any(r >= m for r, m in zip(readings, self.degraded_marks())):
            level = DEGRADED
        if level > self.state:
            if self.state == NORMAL:
                self.overload_entries += 1
            self.state = level
            self.state_since = now
            return self.state
        clear = self.watermarks.clear_frac
        if self.state == SHEDDING:
            if all(r < m * clear for r, m in zip(readings, self.shedding_marks())):
                self.state = DEGRADED
                self.state_since = now
        elif self.state == DEGRADED and all(
            r < m * clear for r, m in zip(readings, self.degraded_marks())
        ):
            self.state = NORMAL
            self.state_since = now
        return self.state

    def should_shed(self, priority, now):
        if priority <= PRIORITY_AUDIO:
            return False
        state = self.refresh(now)
        if state == NORMAL:
            return False
        if priority >= PRIORITY_BULK or state == SHEDDING:
            self.events_shed_by_class[priority] += 1
            return True
        return False

    def admit(self, now):
        if self.refresh(now) == SHEDDING:
            self.admissions_refused += 1
            return False, self.retry_after_s
        return True, 0.0


#: Readings on both sides of every mark of ``controller()``'s watermarks
#: (degraded 10 / 1000 / 10, shedding 20 / 2000 / 20, cleared below half
#: of each with the default ``clear_frac``); the NIC's are scaled by 100.
_levels = st.sampled_from((0, 4, 5, 9, 10, 11, 19, 20, 40))
_trace = st.lists(
    st.tuples(
        _levels, _levels, _levels,
        st.sampled_from(("refresh", "admit", "shed", "shed", "shed")),
        st.sampled_from((
            PRIORITY_CONTROL, PRIORITY_AUDIO,
            PRIORITY_VIDEO, PRIORITY_VIDEO, PRIORITY_BULK, PRIORITY_BULK,
        )),
    ),
    min_size=1,
    max_size=60,
)


@settings(deadline=None, max_examples=200)
@given(_trace, st.sampled_from((0.5, 1.0)))
def test_fast_path_decides_as_the_reference_does(trace, clear_frac):
    pressure = {}
    fast = controller(pressure, clear_frac=clear_frac)
    reference = ReferenceController(
        (
            lambda: pressure.get("cpu", 0),
            lambda: pressure.get("nic", 0),
            lambda: pressure.get("outbox", 0),
        ),
        ShedWatermarks(
            cpu_degraded=10, cpu_shedding=20,
            nic_degraded_bytes=1000, nic_shedding_bytes=2000,
            outbox_degraded=10, outbox_shedding=20, clear_frac=clear_frac,
            retry_after_s=2.0,
        ),
    )
    for step, (cpu, nic, outbox, operation, priority) in enumerate(trace):
        pressure.update(cpu=cpu, nic=nic * 100, outbox=outbox)
        now = step * 0.25
        if operation == "refresh":
            answers = fast.refresh(now), reference.refresh(now)
        elif operation == "admit":
            answers = fast.admit(now), reference.admit(now)
        else:
            answers = (
                fast.should_shed(priority, now),
                reference.should_shed(priority, now),
            )
        assert answers[0] == answers[1], (step, operation)
        for name in (
            "state", "state_since", "overload_entries",
            "events_shed_by_class", "admissions_refused",
        ):
            assert getattr(fast, name) == getattr(reference, name), (step, name)


# -------------------------------------------------------- classification


@pytest.mark.parametrize(
    ("topic", "priority"),
    [
        ("/narada/heartbeat", PRIORITY_CONTROL),
        ("/narada/monitor/b0", PRIORITY_CONTROL),
        ("/narada/alerts/p99", PRIORITY_CONTROL),
        ("/xgsp/signaling/server", PRIORITY_CONTROL),
        ("/xgsp/journal", PRIORITY_CONTROL),
        ("/narada/trace/completed", PRIORITY_BULK),
        ("/narada/archive/session-1", PRIORITY_BULK),
        ("/session/1/audio", PRIORITY_AUDIO),
        ("/room/audio-left", PRIORITY_AUDIO),
        ("/session/1/video", PRIORITY_VIDEO),
        ("/room/whiteboard", PRIORITY_VIDEO),  # unknown app traffic
    ],
)
def test_classify_topic(topic, priority):
    assert classify_topic(topic) == priority


def test_event_priority_defaults_from_topic_and_forks():
    event = NBEvent(topic="/session/1/audio", payload=b"x", size=10)
    assert event.priority == PRIORITY_AUDIO
    override = NBEvent(
        topic="/session/1/audio", payload=b"x", size=10,
        priority=PRIORITY_BULK,
    )
    assert override.priority == PRIORITY_BULK
    assert override.fork_for_branch().priority == PRIORITY_BULK


# ----------------------------------------------------------- integration

#: Slow enough that a publish storm piles real queue depth on the broker.
SLOW = LinkProfile(bandwidth_bps=2e6, latency_s=0.003, jitter_s=0.001)

#: Watermarks tiny enough that the storm below crosses them.
TINY = ShedWatermarks(
    cpu_degraded=2, cpu_shedding=6,
    nic_degraded_bytes=4000, nic_shedding_bytes=16000,
    outbox_degraded=4, outbox_shedding=16,
)

SEED = 321


def storm_run():
    """One seeded publish storm over tiny watermarks; returns the
    delivered trace (normalized event ids) and the shed counters."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    broker = Broker(
        net.create_host("broker-host", link=SLOW),
        broker_id="b0",
        spec=FabricSpec(overload=TINY),
    )
    delivered = []

    def receiver(name):
        def on_event(event):
            delivered.append((name, event.event_id, event.topic, sim.now))
        return on_event

    # Fan-out of 3 makes the broker's outbound NIC the bottleneck: it
    # must emit three bytes for every byte the storm delivers to it.
    subscribers = []
    for index in range(3):
        name = f"sub-{index}"
        subscriber = BrokerClient(
            net.create_host(name, link=SLOW), client_id=name
        )
        subscriber.connect(broker)
        for pattern in ("/room/#", "/narada/trace/#"):
            subscriber.subscribe(pattern, receiver(name))
        subscribers.append(subscriber)
    publisher = BrokerClient(
        net.create_host("pub", link=SLOW), client_id="pub"
    )
    publisher.connect(broker)
    sim.run(until=1.0)

    def publish_some(index):
        topic = ("/room/audio", "/room/video", "/narada/trace/t")[index % 3]
        publisher.publish(topic, index, 400)

    for index in range(300):
        sim.schedule_at(1.0 + index * 0.0005, publish_some, index)
    sim.run(until=10.0)
    assert delivered
    base = min(entry[1] for entry in delivered)
    trace = [
        (name, eid - base, topic, at) for name, eid, topic, at in delivered
    ]
    shed = tuple(broker.overload.events_shed_by_class)
    # Recovery: with the storm long drained, two gauge reads walk the
    # state machine back to NORMAL (one de-escalation step per read).
    broker.statistics()
    assert broker.statistics()["overload_state"] == NORMAL
    return trace, shed


def test_storm_sheds_video_and_bulk_never_audio_or_control():
    trace, shed = storm_run()
    control, audio, video, bulk = shed
    assert control == 0
    assert audio == 0
    assert video + bulk > 0
    # Every audio event survived the broker: 100 published × 3 receivers.
    audio_deliveries = sum(
        1 for _name, _eid, topic, _at in trace if topic == "/room/audio"
    )
    assert audio_deliveries == 300


def test_shed_set_is_deterministic_per_seed():
    assert storm_run() == storm_run()


def forced(broker, pressure):
    """Swap the broker's controller for one driven by ``pressure``."""
    broker.overload = OverloadController(
        (
            lambda: pressure.get("cpu", 0),
            lambda: pressure.get("nic", 0),
            lambda: pressure.get("outbox", 0),
        ),
        ShedWatermarks(cpu_degraded=1, cpu_shedding=2, retry_after_s=2.0),
    )
    return broker.overload


def test_shedding_broker_refuses_connect_then_admits_on_recovery(sim, net):
    broker = Broker(net.create_host("bh"), broker_id="b0")
    pressure = {"cpu": 10}
    ctrl = forced(broker, pressure)
    client = BrokerClient(net.create_host("ch"), client_id="c1")
    client.connect(broker)
    sim.run_for(1.0)
    assert not client.connected
    assert client.busy_rejections >= 1
    assert ctrl.admissions_refused >= 1
    assert broker.statistics()["admissions_refused"] >= 1
    # Pressure drains; the client's paced retry (retry_after_s=2.0) lands.
    pressure["cpu"] = 0
    sim.run_for(6.0)
    assert client.connected


def test_established_clients_reconnect_past_admission_control(sim, net):
    """Admission control gates *new* sessions only: a client the broker
    already knows re-sending Connect (e.g. a duplicate over UDP) is not
    refused — refusing it would amplify overload into session loss."""
    broker = Broker(net.create_host("bh"), broker_id="b0")
    pressure = {}
    ctrl = forced(broker, pressure)
    client = BrokerClient(net.create_host("ch"), client_id="c1")
    client.connect(broker)
    sim.run_for(1.0)
    assert client.connected
    pressure["cpu"] = 10
    client._send_connect(client._link_type, 0)  # duplicate connect
    sim.run_for(1.0)
    assert client.connected
    assert client.busy_rejections == 0
    assert ctrl.admissions_refused == 0


def test_shedding_broker_defers_subscribe_until_recovery(sim, net):
    broker = Broker(net.create_host("bh"), broker_id="b0")
    pressure = {}
    forced(broker, pressure)
    client = BrokerClient(net.create_host("ch"), client_id="c1")
    client.connect(broker)
    publisher = BrokerClient(net.create_host("ph"), client_id="pub")
    publisher.connect(broker)
    sim.run_for(1.0)
    assert client.connected
    pressure["cpu"] = 10
    got = []
    client.subscribe("/room/video", got.append)
    sim.run_for(1.0)
    assert client.busy_rejections >= 1
    pressure["cpu"] = 0
    sim.run_for(6.0)  # server-paced retry re-subscribes
    publisher.publish("/room/video", {"frame": 1}, 300)
    sim.run_for(2.0)
    assert len(got) == 1


def test_below_watermarks_counters_all_zero(sim, net):
    """Defaults sized so ordinary workloads never trip the controller."""
    broker = Broker(net.create_host("bh"), broker_id="b0")
    client = BrokerClient(net.create_host("ch"), client_id="c1")
    client.connect(broker)
    publisher = BrokerClient(net.create_host("ph"), client_id="pub")
    publisher.connect(broker)
    sim.run_for(1.0)
    got = []
    client.subscribe("/room/#", got.append)
    sim.run_for(1.0)
    for index in range(50):
        publisher.publish("/room/video", index, 300)
    sim.run_for(5.0)
    assert len(got) == 50
    stats = broker.statistics()
    assert stats["events_shed"] == 0
    assert stats["admissions_refused"] == 0
    assert stats["overload_state"] == NORMAL
    assert client.busy_rejections == 0


def test_overload_disabled_broker_has_no_controller(sim, net):
    broker = Broker(
        net.create_host("bh"), broker_id="b0", spec=FabricSpec(overload=None)
    )
    assert broker.overload is None
    stats = broker.statistics()
    assert stats["overload_state"] == NORMAL
    assert stats["events_shed"] == 0
