"""Unit tests for trace sampling, hop records and completed traces."""

import pytest

from repro.broker import Broker, BrokerClient
from repro.broker.event import NBEvent
from repro.obs.collector import TraceCollector
from repro.obs.trace import (
    TRACE_BASE_BYTES,
    TRACE_HOP_BYTES,
    CompletedTrace,
    HopRecord,
    TraceContext,
    Tracer,
    internal_topic,
)


def make_event(topic="/conf/video"):
    return NBEvent(topic, b"x", 100, source="pub", published_at=1.0)


def test_internal_topic_guard():
    assert internal_topic("/narada/trace/b0")
    assert internal_topic("/narada/alerts/p99")
    assert internal_topic("/narada/monitor/b0")
    assert not internal_topic("/conf/video")
    assert not internal_topic("/naradaesque")  # prefix is path-ish, fine


def test_tracer_rejects_bad_rate():
    with pytest.raises(ValueError):
        Tracer(0.0)
    with pytest.raises(ValueError):
        Tracer(1.5)


def test_tracer_deterministic_interval():
    tracer = Tracer(0.5)
    decisions = [tracer.should_sample("/t") for _ in range(6)]
    assert decisions == [False, True, False, True, False, True]


def test_tracer_never_samples_management_topics():
    tracer = Tracer(1.0)
    assert not tracer.should_sample("/narada/trace/b0")
    # The guard does not consume sampling budget either.
    assert tracer.should_sample("/conf/video")


def test_sample_attaches_context_once():
    tracer = Tracer(1.0)
    event = make_event()
    context = tracer.sample(event, now=2.0)
    assert context is event.trace
    assert context.topic == "/conf/video"
    assert context.published_at == 1.0
    assert tracer.sampled == 1
    # Already-traced events are left alone (e.g. proxy-ingress sampling
    # upstream of the broker's own sampling point).
    assert tracer.sample(event, now=2.5) is None
    assert tracer.sampled == 1


def test_fork_shares_finalized_hops_copies_last():
    context = TraceContext("/t", "pub", 0.0)
    first = context.begin_hop("b0", "broker", 0.1)
    first.departed_at = 0.2
    second = context.begin_hop("b1", "broker", 0.3)
    branch = context.fork()
    assert branch.trace_id == context.trace_id
    assert branch.hops[0] is first  # finalized: shared
    assert branch.hops[1] is not second  # in-progress: copied
    branch.hops[1].link = "b2"
    assert second.link is None


def test_completed_trace_attribution_and_path():
    hop_a = HopRecord("b0", "broker", 0.0)
    hop_a.cpu_s = 0.002
    hop_a.queue_wait_s = 0.001
    hop_b = HopRecord("b1", "broker", 0.05)
    hop_b.cpu_s = 0.003
    trace = CompletedTrace(
        trace_id=1, topic="/t", source="pub",
        published_at=0.0, delivered_at=0.1,
        delivered_by="b1", delivered_to=("sub",),
        hops=(hop_a, hop_b),
    )
    assert trace.path() == ("b0", "b1")
    attribution = trace.attribution()
    assert attribution["total_s"] == pytest.approx(0.1)
    assert attribution["cpu_s"] == pytest.approx(0.005)
    assert attribution["queue_s"] == pytest.approx(0.001)
    assert attribution["link_s"] == pytest.approx(0.094)
    assert trace.wire_size() == TRACE_BASE_BYTES + 2 * TRACE_HOP_BYTES
    encoded = trace.as_dict()
    assert encoded["delivered_to"] == ["sub"]
    assert len(encoded["hops"]) == 2


def test_single_broker_end_to_end_trace(net, sim):
    broker = Broker(
        net.create_host("b-host"), broker_id="b0", tracer=Tracer(1.0)
    )
    collector = TraceCollector(net.create_host("ops-host"), broker)
    subscriber = BrokerClient(net.create_host("sub-host"), client_id="sub")
    subscriber.connect(broker)
    got = []
    subscriber.subscribe("/conf/video", lambda e: got.append(e.payload))
    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(broker)
    sim.run_for(0.5)

    for index in range(4):
        publisher.publish("/conf/video", index, 200)
        sim.run_for(0.1)
    sim.run_for(1.0)

    assert got == [0, 1, 2, 3]
    assert broker.statistics()["traces_started"] == 4
    assert broker.statistics()["traces_completed"] == 4
    assert len(collector.traces) == 4
    trace = collector.traces[0]
    assert trace.path() == ("b0",)
    assert trace.delivered_by == "b0"
    assert trace.delivered_to == ("sub",)
    assert trace.total_s > 0.0
    hop = trace.hops[0]
    assert hop.cpu_s > 0.0
    assert hop.departed_at is not None and hop.link == "local"
    # Trace dissemination itself is never traced (no recursion).
    assert all(t.topic == "/conf/video" for t in collector.traces)


def test_set_sample_rate_is_runtime_adjustable():
    tracer = Tracer(1.0)
    for _ in range(3):
        assert tracer.should_sample("/conf/video")
    # Re-parameterize to 1-in-2 without resetting the publish counter.
    tracer.set_sample_rate(0.5)
    assert tracer.interval == 2
    decisions = [tracer.should_sample("/conf/video") for _ in range(4)]
    assert decisions == [True, False, True, False]
    # An unchanged rate is a pure no-op on the sampled stream.
    tracer.set_sample_rate(0.5)
    assert [tracer.should_sample("/conf/video") for _ in range(2)] == [
        True, False,
    ]
    with pytest.raises(ValueError):
        tracer.set_sample_rate(0.0)
    with pytest.raises(ValueError):
        tracer.set_sample_rate(2.0)


def test_tracing_suppressed_while_overloaded(net, sim):
    """Trace starts are BULK-class work: under DEGRADED/SHEDDING the
    broker stops opening new traces (counted, not silent) and resumes
    exactly when the controller recovers."""
    from repro.broker.overload import (
        DEGRADED,
        NORMAL,
        OverloadController,
        ShedWatermarks,
    )

    broker = Broker(
        net.create_host("b-host"), broker_id="b0", tracer=Tracer(1.0)
    )
    # Drive the controller with a synthetic pressure signal so the test
    # chooses when the broker is overloaded.
    pressure = {"cpu": 0}
    broker.overload = OverloadController(
        (lambda: pressure["cpu"], lambda: 0, lambda: 0),
        ShedWatermarks(cpu_degraded=1, cpu_shedding=2),
    )
    subscriber = BrokerClient(net.create_host("sub-host"), client_id="sub")
    subscriber.connect(broker)
    subscriber.subscribe("/conf/video", lambda e: None)
    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(broker)
    sim.run_for(0.5)

    publisher.publish("/conf/video", 0, 200)
    sim.run_for(0.5)
    assert broker.traces_started == 1
    assert broker.traces_suppressed == 0

    # Degrade the broker: new publishes must not open traces.
    pressure["cpu"] = 1
    assert broker.overload.refresh(sim.now) == DEGRADED
    for index in range(3):
        publisher.publish("/conf/video", 1 + index, 200)
    sim.run_for(0.5)
    assert broker.traces_started == 1
    assert broker.traces_suppressed == 3
    assert broker.statistics()["traces_suppressed"] == 3

    # Recovery: tracing resumes with no residual effect.
    pressure["cpu"] = 0
    assert broker.overload.refresh(sim.now) == NORMAL
    publisher.publish("/conf/video", 9, 200)
    sim.run_for(0.5)
    assert broker.traces_started == 2
    assert broker.traces_suppressed == 3
