"""Fan-out trains against the per-send tasks they replace.

``Cpu.execute_train`` runs the datagram sends of one fan-out as a single
CPU job (DESIGN.md §7).  The reference kept here is the path it replaced:
``allocate`` then ``execute`` for every send.  Generated fan-outs mix UDP,
TCP and SSL links, reliable outboxes, receivers on the broker's own host,
lossy and jittered links, GC pauses that trip mid-fan-out, the broker's
UDP socket closed mid-fan-out and timers that read the broker's queues mid-train;
both paths must show the same arrivals, counters, probe readings and
per-host random streams.  Only the kernel event count may differ, and
the train's may not be the larger: both paths run a CPU completion that
is provably the kernel's next event in place, the train at its
boundaries too.
"""

import dataclasses
import sys

from hypothesis import given, settings, strategies as st

from repro.broker import Broker, BrokerClient
from repro.broker.links import LinkType
from repro.broker.profile import NARADA_PROFILE
from repro.simnet import Network, SeededStreams, Simulator
from repro.simnet.cpu import Cpu, GcProfile
from repro.simnet.link import LinkProfile

TOPIC = "/room/video"
PUBLISH_AT = 1.0


def per_send(cpu):
    """``execute_train`` as one allocation and one task per send."""

    def execute_train(cost_s, fns, args, alloc_bytes=0):
        for fn in fns:
            cpu.allocate(alloc_bytes)
            cpu.execute(cost_s, fn, *args)

    return execute_train


_receivers = st.lists(
    st.tuples(
        st.sampled_from((LinkType.UDP,) * 4 + (LinkType.TCP, LinkType.SSL)),
        st.sampled_from(("own", "own", "shared", "broker")),  # where it runs
    ),
    min_size=1,
    max_size=16,
)
_publishes = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.0004),  # gap before it
        st.sampled_from((False, False, True)),  # reliable
        st.sampled_from((100, 1400)),
    ),
    min_size=1,
    max_size=5,
)
_scenario = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**32),
    "receivers": _receivers,
    "publishes": _publishes,
    "jitter_s": st.sampled_from((0.0005, 0.004)),
    "loss_rate": st.sampled_from((0.0, 0.0, 0.2)),
    # Young generation in sends: a pause trips every that many sends.
    "gc_every": st.sampled_from((None, None, 1, 5)),
    # Offsets from the first publish, whose fan-out starts 0.1 ms in and
    # lasts 17-38 us per UDP receiver.
    "probes": st.lists(
        st.floats(min_value=0.0001, max_value=0.0008), max_size=4
    ),
    "close_after": st.one_of(
        st.none(), st.floats(min_value=0.0001, max_value=0.0008)
    ),
})


def run(scenario, reference):
    sim = Simulator()
    net = Network(sim, SeededStreams(scenario["seed"]))
    link = LinkProfile(
        latency_s=0.0002,
        jitter_s=scenario["jitter_s"],
        loss_rate=scenario["loss_rate"],
    )
    profile = NARADA_PROFILE
    if scenario["gc_every"] is not None:
        profile = dataclasses.replace(profile, gc=GcProfile(
            young_gen_bytes=scenario["gc_every"] * profile.alloc_bytes_per_send
        ))
    broker = Broker(net.create_host("b", link=link), profile=profile)
    cpu, nic = broker.host.cpu, broker.host.nic
    if reference:
        cpu.execute_train = per_send(cpu)
    shared = net.create_host("shared", link=link)
    arrivals = []
    for n, (kind, where) in enumerate(scenario["receivers"]):
        if where == "own":
            host = net.create_host(f"r{n}", link=link)
        else:
            host = broker.host if where == "broker" else shared
        client = BrokerClient(host, client_id=f"c{n}")
        client.connect(broker, link_type=kind)
        client.subscribe(TOPIC, lambda event, n=n: arrivals.append(
            (sim.now, n, event.payload)
        ))
    # Publishing over loopback puts each fan-out at a known time.
    publisher = BrokerClient(broker.host, client_id="pub")
    publisher.connect(broker)
    sim.run(until=PUBLISH_AT)

    probes = []

    def probe():
        probes.append((
            sim.now, cpu.queue_depth, nic.queued_bytes, nic.queue_depth,
            cpu.busy_time, cpu.tasks_executed, cpu.gc_pauses,
        ))

    at = PUBLISH_AT
    for n, (gap, reliable, size) in enumerate(scenario["publishes"]):
        at += gap
        sim.schedule_at(at, publisher.publish, TOPIC, n, size, reliable)
    for offset in scenario["probes"]:
        sim.schedule_at(PUBLISH_AT + offset, probe)
    if scenario["close_after"] is not None:
        # The socket every UDP link sends through.
        sim.schedule_at(PUBLISH_AT + scenario["close_after"], broker._udp.close)
    sim.run(until=PUBLISH_AT + 3.0)

    hosts = sorted(net.hosts(), key=lambda host: host.name)
    return {
        "arrivals": arrivals,
        "probes": probes,
        "hosts": [
            (
                host.name, host.cpu.tasks_executed, host.cpu.busy_time,
                host.cpu.gc_pauses, host.cpu.gc_pause_time,
                host.cpu.queue_depth, host.nic.sent_packets,
                host.nic.sent_bytes, host.nic.dropped_packets,
                host.received_packets, host.discarded_packets,
                net.streams.stream(f"network:{host.name}").getstate(),
            )
            for host in hosts
        ],
        "network": (net.delivered_packets, net.lost_packets),
        "broker": (broker.events_delivered, broker.statistics()),
        "events": sim.events_processed,
    }


@settings(deadline=None, max_examples=60)
@given(_scenario)
def test_a_train_is_its_per_send_tasks(scenario):
    train = run(scenario, reference=False)
    reference = run(scenario, reference=True)
    assert train.pop("events") <= reference.pop("events")
    assert train == reference


def fan_out_events(scenario, reference):
    """``run()``'s results, and the kernel events that completed the
    broker host's CPU work once the fan-out began (0.1 ms after the
    publish): the ``fn`` of each posted completion the kernel dispatched
    (None for a train).  A completion run in place is no event."""
    dispatched = []

    def profiler(frame, event, arg):
        if (
            event == "call"
            and frame.f_code is Cpu._complete.__code__
            and frame.f_back.f_code is Simulator.run.__code__
        ):
            cpu = frame.f_locals["self"]
            if cpu.name == "b.cpu" and cpu.sim.now > PUBLISH_AT + 0.0001:
                dispatched.append(frame.f_locals["fn"])

    sys.setprofile(profiler)
    try:
        result = run(scenario, reference)
    finally:
        sys.setprofile(None)
    return result, dispatched


def test_a_fan_out_is_one_job_until_a_timer_interrupts_it():
    scenario = {
        "seed": 5,
        "receivers": [(LinkType.UDP, "own")] * 40,
        "publishes": [(0.0, False, 1400)],
        "jitter_s": 0.0005,
        "loss_rate": 0.0,
        "gc_every": None,
        "probes": [0.0008],
        "close_after": None,
    }
    train, train_events = fan_out_events(scenario, reference=False)
    reference, reference_events = fan_out_events(scenario, reference=True)
    # Forty sends.  The train starts in place behind the publish's routing
    # task; then one event resumes it after the probe and one completes
    # its last item, which waits behind arrivals already due.  The per-send
    # reference runs most of its forty completions in place too, but
    # every one that an arrival precedes is an event of its own.
    assert [fn is None for fn in train_events] == [True, False]
    assert len(reference_events) > len(train_events)
    assert train["events"] < reference["events"]
    assert train["probes"] == reference["probes"]
    assert 0 < train["probes"][0][1] < 40  # mid-train, items still queued
    assert train["probes"][0][2] > 0  # and datagrams waiting in the NIC
