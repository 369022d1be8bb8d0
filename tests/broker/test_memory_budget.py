"""Memory budget: a broker's routing state grows with what is distinct,
and an idle endpoint holds only what it uses.

Counts and identities, not bytes, so every Python version agrees: one
shared fan-out per distinct remote-target set, one send-cost memo per
broker, one generation tuple per generation, trie nodes that hold no
empty set of their own, cached entries that still equal a from-scratch
resolve once they share, inboxes, outboxes, CPU queues and NIC ledgers
made only where they are used, per-endpoint objects without an
instance dict, a closed broker that keeps no routing state, no
OpenSSL mapped for the simulator's two SHA-256 uses, and conference
members that leave nothing behind but what reference counting frees.
"""

import gc
import hashlib
import os
import random
import subprocess
import sys

import repro
from repro.broker import FAST_MESH, BrokerClient, BrokerNetwork, LinkType
from repro.broker.links import UdpClientLink
from repro.broker.rtp_proxy import RtpProxy
from repro.core.mmcs import GlobalMMCS, MMCSConfig
from repro.core.xgsp.messages import JoinAccepted
from repro.core.xgsp.session_server import client_topic
from repro.core.xgsp.translation import conference_alias, conference_sip_uri
from repro.h323.terminal import H323Call
from repro.simnet import SeededStreams
from repro.simnet.tcp import TcpConnection
from repro.simnet.udp import UdpSocket
from repro.sip import SessionDescription
from repro.sip.message import SipRequest, SipResponse
from repro.util.backoff import ExponentialBackoff

from tests.broker.conftest import assert_maintained_state, make_client

#: Where the ``repro`` under test was imported from.
SRC = os.path.dirname(os.path.dirname(repro.__file__))
PATTERNS = ("/conf/a/video", "/conf/a/#", "/conf/b/#", "/conf/*/audio", "/#")
TOPICS = ("/conf/a/video", "/conf/a/audio", "/conf/b/video", "/conf/b/audio")


def trie_sets(trie):
    """Every ``here`` / ``multi`` value set of the trie's nodes."""
    nodes = [trie._root]
    while nodes:
        node = nodes.pop()
        yield node.here
        yield node.multi
        nodes.extend(node.children.values())


def test_topics_with_one_target_set_share_one_fanout(net, sim):
    bnet = BrokerNetwork.hierarchical(net, [8] * 8)
    brokers = bnet.brokers()
    for index, broker in enumerate(brokers):
        make_client(net, sim, broker, f"sub-{index}").subscribe(
            "/mesh/#", lambda event: None
        )
    sim.run_for(2.0)
    topics = [f"/mesh/p{n}/{kind}" for n in range(4) for kind in ("a", "v")]
    for n, broker in enumerate(brokers[:4]):
        publisher = make_client(net, sim, broker, f"pub-{n}")
        for kind in ("a", "v"):
            publisher.publish(f"/mesh/p{n}/{kind}", None, 100)
    sim.run_for(1.0)
    for broker in brokers:
        entries = list(broker.route_cache._entries.values())
        assert sorted(broker.route_cache._entries) == sorted(topics)
        others = frozenset(b.broker_id for b in brokers) - {broker.broker_id}
        assert {entry.remote_targets for entry in entries} == {others}
        assert len({id(entry.remote_targets) for entry in entries}) == 1
        assert len({id(entry.next_hop_groups) for entry in entries}) == 1
        fanout = broker.route_cache._fanouts[others]
        assert entries[0].remote_targets is fanout.targets
        assert entries[0].next_hop_groups is fanout.groups
        # Resolved at one generation: one tuple, the broker's own.
        assert len({id(entry.generation) for entry in entries}) == 1
        assert entries[0].generation is broker.routing_generation()
        # Send costs: one memo per broker, none per topic.
        assert not any(hasattr(entry, "_send_costs") for entry in entries)
        assert broker.send_costs == {100: broker.profile.send_cost_s(100)}


def churn(bnet, net, sim, seed, steps=60):
    """Seeded subscribe/unsubscribe churn with publishes on every topic
    between steps (filling the route caches), and one link cut and
    healed on the way (a new route generation under shared fan-outs)."""
    rng = random.Random(seed)
    brokers = bnet.brokers()
    clients = [
        make_client(net, sim, broker, f"c{n}")
        for n, broker in enumerate(brokers)
    ]
    publisher = make_client(net, sim, brokers[1], "pub")
    held = [set() for _ in clients]
    for step in range(steps):
        n = rng.randrange(len(clients))
        pattern = rng.choice(PATTERNS)
        if pattern in held[n]:
            clients[n].unsubscribe(pattern)
            held[n].discard(pattern)
        else:
            clients[n].subscribe(pattern, lambda event: None)
            held[n].add(pattern)
        if step == steps // 3:
            bnet.disconnect("broker-c0-2", "broker-c0-3")
        if step == 2 * steps // 3:
            bnet.connect("broker-c0-2", "broker-c0-3")
        sim.run_for(0.3)
        for topic in TOPICS:
            publisher.publish(topic, None, 100)
        sim.run_for(0.2)
    sim.run_for(3.0)


def test_churned_tries_hold_no_empty_sets(net, sim):
    bnet = BrokerNetwork.clustered(net, [4] * 4, mesh=FAST_MESH)
    sim.run_for(3.0)
    churn(bnet, net, sim, seed=7)
    for broker in bnet.brokers():
        for trie in (broker._local_subs, broker._remote_interest):
            for held in trie_sets(trie):
                assert held or isinstance(held, frozenset), broker.broker_id


def test_shared_entries_equal_a_from_scratch_resolve(net, sim):
    """The sharing oracle: after churn, every entry the cache serves on
    a member and on a gateway (where the intra/inter split is filled
    in) equals the uncached resolve of an emptied cache."""
    bnet = BrokerNetwork.clustered(net, [4] * 4, mesh=FAST_MESH)
    sim.run_for(3.0)
    churn(bnet, net, sim, seed=11)
    fields = (
        "generation", "local_targets", "remote_targets",
        "next_hop_groups", "intra_targets", "inter_targets",
    )
    split = 0
    for broker in bnet.brokers():
        served = {topic: broker.resolve_route(topic) for topic in TOPICS}
        broker.route_cache.clear()
        for topic, cached in served.items():
            fresh = broker.resolve_route(topic)
            for field in fields:
                assert getattr(cached, field) == getattr(fresh, field), (
                    broker.broker_id, topic, field,
                )
            split += bool(cached.inter_targets) and bool(cached.intra_targets)
    assert split  # a gateway exported and re-fanned out
    assert_maintained_state(bnet.brokers())


def test_inboxes_are_made_for_the_clients_that_use_them(net, sim, single_broker):
    publisher = make_client(net, sim, single_broker, "pub")
    plain = make_client(net, sim, single_broker, "plain")
    reliable = make_client(net, sim, single_broker, "reliable")
    ordered = make_client(net, sim, single_broker, "ordered")
    for client, topic in (
        (plain, "/plain"), (reliable, "/reliable"), (ordered, "/ordered"),
    ):
        client.subscribe(topic, lambda event: None)
    sim.run_for(1.0)
    publisher.publish("/plain", None, 100)
    publisher.publish("/reliable", None, 100, reliable=True)
    publisher.publish("/ordered", None, 100, ordered=True)
    sim.run_for(1.0)
    assert plain.events_received == reliable.events_received == 1
    assert ordered.events_received == 1
    assert plain._reliable_inbox is None and plain._ordered_inbox is None
    assert reliable._reliable_inbox is not None
    assert reliable._ordered_inbox is None
    assert ordered._reliable_inbox is None
    assert ordered._ordered_inbox is not None


def test_a_host_that_never_queued_holds_no_queue(net, sim, single_broker):
    """A CPU queue and a NIC ledger exist only while something waits: a
    burst makes both on the publisher's host, the end of the CPU's busy
    period drops the queue, the first look at a drained NIC (a send, a
    depth read) drops the ledger, and a subscriber that takes one
    datagram at a time never makes either."""
    publisher = make_client(net, sim, single_broker, "pub")
    quiet = make_client(net, sim, single_broker, "quiet")
    quiet.subscribe("/t", lambda event: None)
    sim.run_for(1.0)
    busy = publisher.host
    assert busy.cpu._queue is None and busy.nic._pending is None
    for index in range(5):  # one burst: the items wait behind each other
        publisher.publish("/t", index, 1000)
    assert busy.cpu.queue_depth == 4
    sim.run_for(0.0001)  # all five sent, the NIC still serializing
    assert busy.cpu._queue is None
    assert busy.nic._pending is not None and busy.nic.queue_depth
    sim.run_for(1.0)
    publisher.publish("/t", 5, 1000)  # a send on the idle NIC looks first
    sim.run_for(1.0)
    assert busy.nic._pending is None
    assert quiet.events_received == 6
    assert quiet.host.cpu._queue is None and quiet.host.nic._pending is None
    for host in (quiet.host, busy):
        assert host.cpu.queue_depth == host.nic.queue_depth == 0
        assert host.cpu._queue is None and host.nic._pending is None


def stray_values(obj):
    """What ``obj`` holds outside its slots: the values of an instance
    dict, read off the collector's referents so no dict is made."""
    held = [
        getattr(obj, name)
        for cls in type(obj).__mro__
        for name in vars(cls).get("__slots__", ())
        if name != "__dict__" and hasattr(obj, name)
    ]
    return [
        value
        for value in gc.get_referents(obj)
        if value is not type(obj) and not any(value is h for h in held)
    ]


def test_endpoints_carry_no_instance_dict(net, sim, single_broker):
    """Hosts, CPUs, sockets, clients, their transports and the broker's
    client links hold their state in slots; a client's retry table,
    unsubscribe set, pending list and failover backoff, and the broker's
    outbox for it, are made on first use."""
    publisher = make_client(net, sim, single_broker, "pub")
    udp = make_client(net, sim, single_broker, "udp")
    tcp = make_client(net, sim, single_broker, "tcp", link_type=LinkType.TCP)
    ssl = make_client(net, sim, single_broker, "ssl", link_type=LinkType.SSL)
    for client in (udp, tcp):
        client.subscribe("/t", lambda event: None)
    sim.run_for(1.0)
    publisher.publish("/t", None, 100)
    sim.run_for(1.0)
    assert udp.events_received == tcp.events_received == 1
    clients = (publisher, udp, tcp, ssl)
    objects = [ExponentialBackoff(0.5, 8.0)]
    for client in clients:
        assert client._failover_backoff is None
        assert client._subscribe_timers is None
        assert client._unsubscribe_on_ack is None
        assert client._pending is None
        host = client.host
        objects += [client, client._transport, host, host.cpu]
    objects += [record.link for record in single_broker._clients.values()]
    objects += [single_broker._udp, udp._transport._socket]
    assert {type(obj).__name__ for obj in objects} >= {
        "BrokerClient", "UdpClientTransport", "TcpClientTransport",
        "SslClientTransport", "UdpClientLink", "TcpClientLink",
        "SslClientLink", "Host", "Cpu", "UdpSocket", "ExponentialBackoff",
    }
    for obj in objects:
        assert stray_values(obj) == [], type(obj).__name__
        if "__dict__" not in type(obj).__slots__:
            assert not hasattr(obj, "__dict__"), type(obj).__name__
    # A plain event made no outbox; the broker keeps none for TCP.
    assert all(
        record.outbox is None for record in single_broker._clients.values()
    )
    publisher.publish("/t", None, 100, reliable=True)
    sim.run_for(1.0)
    assert single_broker._clients["udp"].outbox is not None
    assert single_broker._clients["tcp"].outbox is None


def test_a_closed_broker_lets_its_routing_state_go(net, sim):
    bnet = BrokerNetwork.clustered(net, [3, 3], mesh=FAST_MESH)
    sim.run_for(3.0)
    gateway = bnet.broker("broker-c0-0")
    for n, broker in enumerate(bnet.brokers()):
        make_client(net, sim, broker, f"c{n}").subscribe("/t/#", lambda e: None)
    sim.run_for(2.0)
    for broker in bnet.brokers():
        broker.resolve_route("/t/x")
    assert len(gateway._local_subs) and len(gateway._remote_interest)
    bnet.close()
    for broker in bnet.brokers():
        assert len(broker._local_subs) == len(broker._remote_interest) == 0
        assert broker.route_cache.stats()["entries"] == 0
        assert broker.route_cache._fanouts == {}
    assert gateway.gateway.member_interest._refs == {}
    assert_maintained_state(bnet.brokers())


def test_seeded_draws_are_sha256_of_their_names():
    digest = hashlib.sha256(b"5:link/a").digest()
    expected = random.Random(int.from_bytes(digest[:8], "big")).random()
    assert SeededStreams(5).stream("link/a").random() == expected


def test_the_simulator_maps_no_openssl():
    code = (
        "import sys, repro.simnet, repro.broker, repro.core.mmcs; "
        "print('_hashlib' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert completed.stdout.strip() == "False"


#: What a member's join makes and its leave must let go of.
MEMBER_STATE = (
    BrokerClient, UdpSocket, TcpConnection, RtpProxy, H323Call, UdpClientLink,
)


def made_since(before):
    """The live ``MEMBER_STATE`` objects that are not in ``before`` (a
    ``gc.get_objects()`` list, which keeps its objects and so their ids
    from being reused)."""
    known = {id(obj) for obj in before}
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, MEMBER_STATE) and id(obj) not in known
    ]


def test_members_that_leave_are_freed_without_the_collector():
    """With the cyclic collector off, a native, a SIP and an H.323
    member join one session and leave it (the native client departs
    for good): no broker client, socket, TCP connection, RTP proxy or
    H.323 call made for them outlives the leave, because every teardown
    breaks its callback cycles.  The SIP server transactions that
    answered them keep only the wire text of their last response, a
    broker's link to a client that left goes with its client record and
    route plans, and a drained CPU or NIC holds no deque."""
    mmcs = GlobalMMCS(MMCSConfig(
        seed=3, broker_topology="star", broker_count=2,
        enable_streaming=False, enable_accessgrid=False,
    ))
    mmcs.start()
    session = mmcs.create_session("leak audit")
    audio = next(m.topic for m in session.media if m.kind == "audio")
    sip = mmcs.create_sip_user("alice")
    h323 = mmcs.create_h323_terminal("bob")
    mmcs.run_for(1.0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_objects()
        native = mmcs.create_native_client("carol")
        joined = {}
        native.join(
            session.session_id,
            on_result=lambda reply: joined.update(native=reply),
        )
        sip.invite(
            conference_sip_uri(session.session_id, mmcs.config.sip_domain),
            SessionDescription("alice", sip.host.name).add_media(
                "audio", 41000, [0]
            ),
            on_answer=lambda dialog, sdp: joined.update(sip=dialog),
        )
        h323.call(
            conference_alias(session.session_id),
            on_connected=lambda call: joined.update(h323=call),
        )
        mmcs.run_for(2.0)
        assert isinstance(joined.pop("native"), JoinAccepted)
        assert set(joined) == {"sip", "h323"}
        native.subscribe_media(audio, lambda event: None)
        assert {type(obj).__name__ for obj in made_since(before)} == {
            "BrokerClient", "UdpSocket", "TcpConnection", "RtpProxy",
            "H323Call", "UdpClientLink",
        }
        native.leave(session.session_id)
        sip.bye(joined.pop("sip"))
        joined.pop("h323").hangup()
        mmcs.run_for(1.0)
        native.disconnect()
        del native
        mmcs.run_for(1.0)
        # A route entry keeps its last fan-out plan, a leaver's send among
        # them, until its topic's next event is routed: the session's
        # audio and the native member's reply topic here.
        for topic in (audio, client_topic("carol")):
            mmcs.session_server.client.publish(topic, b"after", 100)
        mmcs.run_for(1.0)
        transactions = list(mmcs.sip_proxy._server_transactions.values())
        assert transactions  # still lingering for retransmissions
        for transaction in transactions:
            held = gc.get_referents(transaction)
            assert [type(obj) for obj in held].count(str) == 1
            assert not any(
                isinstance(obj, (SipRequest, SipResponse)) for obj in held
            )
        # No horizon read first: a fired timer still in the kernel's
        # timer heap (the client's linger, the last one) holds nothing.
        assert made_since(before) == []
        for host in mmcs.net.hosts():
            if not host.cpu._busy:
                assert host.cpu._queue is None, host.name
            if host.nic.queue_depth == 0:
                assert host.nic._pending is None, host.name
    finally:
        if enabled:
            gc.enable()
