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

from hypothesis import example, given, settings, strategies as st

from repro.broker import Broker, BrokerClient, Failover
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
                net.draws(host.name).getstate(),
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


# ------------------------------------------------------ the fan-out plan
#
# A route entry keeps the datagram sends of its local fan-out (its plan)
# while the broker's client table does not change, and a plain publish
# hands them to one train without walking the targets.  The reference
# walks every time: it moves the client-table generation on before each
# fan-out, so no plan is ever current.  Between publishes clients connect
# (one over TCP), disconnect (one before its connect is answered), die
# and are reaped, and reconnect; one of the two publishers also
# subscribes, so its own fan-outs exclude it.

_churn = st.lists(
    st.tuples(
        st.sampled_from(("pub", "pubsub")),
        st.sampled_from((False, False, False, True)),  # reliable
        st.sampled_from((
            None, None, ("connect", LinkType.UDP), ("connect", LinkType.TCP),
            ("connect-and-leave", LinkType.UDP), ("disconnect",), ("kill",),
            ("reconnect",),
        )),
        st.integers(min_value=0, max_value=15),  # whom the churn picks
    ),
    min_size=1,
    max_size=10,
)


def plan_run(seed, receivers, churn, walk, loss_rate=0.0):
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
    link = LinkProfile(latency_s=0.0002, jitter_s=0.0005, loss_rate=loss_rate)
    broker = Broker(net.create_host("b", link=link), reap_timeout_s=0.6)
    shared = net.create_host("shared", link=link)
    arrivals, trains, walks = [], [], []
    execute_train = broker.host.cpu.execute_train

    def logged_train(cost_s, fns, args, alloc_bytes=0):
        trains.append((sim.now, [fn.__self__.client_id for fn in fns]))
        execute_train(cost_s, fns, args, alloc_bytes)

    broker.host.cpu.execute_train = logged_train
    walk_local = broker._walk_local

    def logged_walk(*args):
        walks.append(sim.now)
        return walk_local(*args)

    broker._walk_local = logged_walk
    if walk:
        deliver_local = broker._deliver_local

        def walked(event, exclude, entry=None):
            broker._clients_generation += 1  # no plan is ever current
            deliver_local(event, exclude, entry)

        broker._deliver_local = walked
    clients = []

    def add_client(kind, where):
        n = len(clients)
        host = net.create_host(f"r{n}", link=link) if where == "own" else shared
        client = BrokerClient(
            host, client_id=f"c{n}", failover=Failover(keepalive_s=0.2)
        )
        client.connect(broker, link_type=kind)
        client.subscribe(TOPIC, lambda event, n=n: arrivals.append(
            (sim.now, n, event.payload)
        ))
        clients.append(client)

    for kind, where in receivers:
        add_client(kind, "own" if where == "own" else "shared")
    publishers = {}
    for name in ("pub", "pubsub"):
        publishers[name] = BrokerClient(
            broker.host, client_id=name, failover=Failover(keepalive_s=0.2)
        )
        publishers[name].connect(broker)
    publishers["pubsub"].subscribe(TOPIC, lambda event: arrivals.append(
        (sim.now, "pubsub", event.payload)
    ))
    sim.run(until=PUBLISH_AT)

    def churn_step(action, pick):
        if action[0].startswith("connect"):
            add_client(action[1], "own")
            if action[0] == "connect-and-leave":
                clients[-1].disconnect()  # before its ConnectAck arrives
            return
        client = clients[pick % len(clients)]
        if action[0] == "disconnect":
            client.disconnect()  # connected, or its connect still in flight
        elif not client.connected:  # dropped, or its connect still in flight
            if action[0] == "reconnect" and client._transport is None:
                client.connect(broker)  # a dropped client comes back
                client.subscribe(TOPIC, lambda event: None)
        elif action[0] == "kill":
            client.kill()  # the broker reaps it
        else:
            # A new transport under the same id: the broker replaces the
            # client's record and keeps its subscriptions, so only the
            # client table says the plan's link is gone.
            client.reconnect(broker)

    at = PUBLISH_AT
    for n, (publisher, reliable, action, pick) in enumerate(churn):
        sim.schedule_at(at, publishers[publisher].publish, TOPIC, n, 200, reliable)
        if action is not None:
            sim.schedule_at(at + 0.1, churn_step, action, pick)
        at += 0.4 if action is None else 1.2
    sim.run(until=at + 1.0)
    return {
        "arrivals": arrivals,
        "trains": trains,
        "broker": (broker.events_delivered, broker.statistics()),
        "hosts": [
            (host.name, host.received_packets, host.discarded_packets,
             host.nic.sent_packets)
            for host in net.hosts()
        ],
    }, walks


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**32), _receivers, _churn,
    st.sampled_from((0.0, 0.0, 0.1)),
)
# A subscribe queued on the CPU reaches the transport that a kill and a
# reconnect closed under it: the write is dropped, not raised.
@example(
    seed=626035,
    receivers=[(LinkType.UDP, "own")],
    churn=[
        ("pub", True, ("connect", LinkType.UDP), 0),
        ("pub", False, ("kill",), 1),
        ("pub", False, ("reconnect",), 0),
    ],
    loss_rate=0.1,
)
def test_a_plan_is_the_walk_it_stands_for(seed, receivers, churn, loss_rate):
    planned, plan_walks = plan_run(seed, receivers, churn, False, loss_rate)
    walked, walks = plan_run(seed, receivers, churn, True, loss_rate)
    assert planned == walked
    assert len(plan_walks) <= len(walks)


def test_the_plan_stands_until_the_client_table_changes():
    receivers = [(LinkType.UDP, "own")] * 6
    steady = [("pub", False, None, 0)] * 4
    result, walks = plan_run(1, receivers, steady, walk=False)
    assert len(result["trains"]) == 4
    assert len(walks) == 1  # the first fan-out walks; the rest use its plan
    for action in (
        ("connect", LinkType.UDP), ("disconnect",), ("kill",), ("reconnect",)
    ):
        churn = steady[:2] + [("pub", False, action, 3)] + steady[:2]
        result, walks = plan_run(1, receivers, churn, walk=False)
        # The change comes after the third publish, and the fourth walks
        # again.  A killed client changes the table when it is reaped.
        assert len(walks) == 2, action
        assert result["broker"][1]["clients_reaped"] == (action[0] == "kill")
    # A reliable event goes through the outboxes: it walks, and leaves
    # the plan to the plain events around it.
    reliable = [("pub", False, None, 0), ("pub", True, None, 0)] * 2
    result, walks = plan_run(1, receivers, reliable, walk=False)
    assert len(walks) == 3
    # A publisher that subscribes is excluded from its own fan-out, so it
    # walks every time, and leaves the other publisher's plan alone.
    mixed = [("pub", False, None, 0), ("pubsub", False, None, 0)] * 2
    result, walks = plan_run(1, receivers, mixed, walk=False)
    assert len(walks) == 3
    assert [len(fns) for _at, fns in result["trains"]] == [7, 6, 7, 6]
