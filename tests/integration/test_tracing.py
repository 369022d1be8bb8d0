"""End-to-end tracing across the mesh and the gateways.

The acceptance scenario for the observability spine: a sampled trace
follows an event across a multi-broker path; when a transit broker
crashes mid-stream, the collector attributes the resulting media gap to
the failed hop by name, and the SLO watchdog raises a media-gap alert
during (not after) the outage.
"""

import pytest

from repro.broker import FAST_MESH, BrokerClient, BrokerNetwork
from repro.core.mmcs import GlobalMMCS, MMCSConfig
from repro.core.xgsp.translation import conference_sip_uri
from repro.obs.collector import TraceCollector
from repro.obs.slo import AlertLog, SloWatchdog
from repro.obs.trace import Tracer
from repro.simnet import Network, SeededStreams, Simulator
from repro.sip.sdp import SessionDescription

TOPIC = "/conf/session-0/video"

def make_mesh(shape, count, seed, sample_rate):
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    builder = getattr(BrokerNetwork, shape)
    bnet = builder(net, count, tracer=Tracer(sample_rate), mesh=FAST_MESH)
    sim.run_for(2.0)  # initial LSA convergence
    return sim, net, bnet


def attach(net, sim, bnet, name, broker_name):
    client = BrokerClient(net.create_host(f"{name}-host"), client_id=name)
    client.connect(bnet.broker(broker_name))
    sim.run_for(0.5)
    assert client.connected
    return client


def test_trace_follows_multi_broker_path():
    sim, net, bnet = make_mesh("chain", 3, seed=3, sample_rate=1.0)
    publisher = attach(net, sim, bnet, "pub", "broker-0")
    subscriber = attach(net, sim, bnet, "sub", "broker-2")
    collector = TraceCollector(
        net.create_host("ops-host"), bnet.broker("broker-0")
    )
    got = []
    subscriber.subscribe(TOPIC, lambda e: got.append(e.payload))
    sim.run_for(0.5)

    for index in range(5):
        publisher.publish(TOPIC, index, 500)
        sim.run_for(0.2)
    sim.run_for(1.0)

    assert got == [0, 1, 2, 3, 4]
    traces = collector.for_topic(TOPIC, delivered_by="broker-2")
    assert len(traces) == 5
    for trace in traces:
        # The full broker path, in order, one hop per broker.
        assert trace.path() == ("broker-0", "broker-1", "broker-2")
        assert trace.delivered_to == ("sub",)
        # Transit hops left over a peer link; the last hop delivered.
        assert trace.hops[0].link == "broker-1"
        assert trace.hops[1].link == "broker-2"
        assert trace.hops[2].link == "local"
        assert all(h.departed_at is not None for h in trace.hops)
        assert all(h.cpu_s > 0.0 for h in trace.hops)
        # Attribution partitions the end-to-end delay.
        attribution = trace.attribution()
        assert attribution["total_s"] == pytest.approx(
            attribution["cpu_s"]
            + attribution["queue_s"]
            + attribution["link_s"]
        )
        assert attribution["link_s"] > 0.0  # three wire hops


def test_fanout_produces_one_linear_trace_per_delivering_broker():
    sim, net, bnet = make_mesh("chain", 3, seed=4, sample_rate=1.0)
    publisher = attach(net, sim, bnet, "pub", "broker-1")  # middle
    sub_left = attach(net, sim, bnet, "sub-left", "broker-0")
    sub_right = attach(net, sim, bnet, "sub-right", "broker-2")
    collector = TraceCollector(
        net.create_host("ops-host"), bnet.broker("broker-1")
    )
    for client in (sub_left, sub_right):
        client.subscribe(TOPIC, lambda e: None)
    sim.run_for(0.5)

    publisher.publish(TOPIC, "fan", 500)
    sim.run_for(1.0)

    traces = collector.for_topic(TOPIC)
    # One linear path per delivering broker, same trace id (forked).
    assert sorted(t.delivered_by for t in traces) == ["broker-0", "broker-2"]
    assert len({t.trace_id for t in traces}) == 1
    by_broker = {t.delivered_by: t for t in traces}
    assert by_broker["broker-0"].path() == ("broker-1", "broker-0")
    assert by_broker["broker-2"].path() == ("broker-1", "broker-2")


def test_crash_gap_attributed_to_failed_hop():
    """The chaos-soak acceptance: a transit broker crashes mid-stream;
    the trace paths name it as the hop lost across the media gap, and
    the watchdog alerts during the outage."""
    sim, net, bnet = make_mesh("ring", 5, seed=12, sample_rate=0.2)
    # Shortest path 0 -> 3 runs through broker-4: the crash victim.
    assert bnet.broker("broker-0")._routes["broker-3"] == "broker-4"
    publisher = attach(net, sim, bnet, "pub", "broker-0")
    subscriber = attach(net, sim, bnet, "sub", "broker-3")
    arrivals = []
    subscriber.subscribe(TOPIC, lambda e: arrivals.append(sim.now))

    ops_host = net.create_host("ops-host")
    collector = TraceCollector(ops_host, bnet.broker("broker-0"))
    alert_log = AlertLog(ops_host, bnet.broker("broker-0"))
    watchdog = SloWatchdog(
        ops_host, bnet.broker("broker-0"), check_interval_s=0.25
    )
    watchdog.watch_media_gap(
        "media-gap/sub",
        lambda: arrivals[-1] if arrivals else None,
        budget_s=0.3,
    )
    sim.run_for(0.5)

    def publish_tick(i=[0]):
        publisher.publish(TOPIC, i[0], 500)
        i[0] += 1
        sim.schedule(0.02, publish_tick)  # 50 pps

    publish_tick()
    sim.run_for(2.0)
    assert len(arrivals) > 50  # stream established through broker-4

    crash_at = sim.now
    bnet.crash_broker("broker-4")
    sim.run_for(4.0)

    # Media resumed over the long way round after the reroute.
    post_crash = [t for t in arrivals if t > crash_at]
    assert post_crash, "stream never recovered after the crash"
    gap = post_crash[0] - max(t for t in arrivals if t <= crash_at)
    assert gap > 0.3  # there WAS an outage worth explaining

    # The collector explains the gap: broker-4 is the lost hop.
    attribution = collector.attribute_gap(
        TOPIC, crash_at, crash_at + 0.1, delivered_by="broker-3"
    )
    assert attribution["explained"], attribution
    assert "broker-4" in attribution["before_path"]
    assert "broker-4" not in attribution["after_path"]
    assert attribution["lost_hops"] == ("broker-4",)
    # path_changes sees the same reroute event.
    assert any(
        "broker-4" in change["lost_hops"]
        for change in collector.path_changes(TOPIC)
    )

    # The watchdog alerted during the outage window.
    gap_alerts = alert_log.named("media-gap/sub")
    assert gap_alerts, "no media-gap alert raised"
    assert all(
        crash_at <= alert.at <= post_crash[0] for alert in gap_alerts
    )


@pytest.fixture
def mmcs():
    system = GlobalMMCS(MMCSConfig(enable_h323=False, enable_streaming=False,
                                   enable_accessgrid=False))
    system.start()
    return system


def test_gateway_join_latency_observed(mmcs):
    """INVITE -> XGSP-join and join -> first-media land in the gateway's
    histograms (the per-gateway join-latency SLO surface)."""
    gateway = mmcs.sip_gateway
    assert gateway.bridge.join_latency.count == 0
    session = mmcs.create_session("conf")
    ua = mmcs.create_sip_user("alice")
    mmcs.run_for(2.0)
    offer = SessionDescription("alice", "alice-host")
    offer.add_media("audio", 41000, [0])
    answers = []
    ua.invite(
        conference_sip_uri(session.session_id, mmcs.config.sip_domain),
        offer,
        on_answer=lambda d, sdp: answers.append(sdp),
    )
    mmcs.run_for(4.0)
    assert len(answers) == 1
    assert gateway.bridge.join_latency.count == 1
    assert 0.0 < gateway.bridge.join_latency.mean < 5.0
    assert gateway.bridge.join_to_first_media.count == 0  # no media yet

    # First media through the proxy completes the join-to-media leg.
    publisher = mmcs.create_native_client("speaker")
    audio_topic = next(m.topic for m in session.media if m.kind == "audio")
    mmcs.run_for(1.0)
    publisher.publish_media(audio_topic, b"rtp", 160)
    mmcs.run_for(2.0)
    assert gateway.bridge.join_to_first_media.count == 1
    assert gateway.bridge.metrics.snapshot()["joins_accepted"] == 1
