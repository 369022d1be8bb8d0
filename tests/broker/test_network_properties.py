"""Property-based tests of broker-network routing.

The central invariant of the dissemination scheme (explicit target sets
forwarded along shortest-path next hops): on ANY connected broker graph,
with subscribers placed anywhere, a published event is delivered to every
matching subscriber EXACTLY once — no losses, no duplicates — and never
to non-matching subscribers.
"""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broker import BrokerClient, BrokerNetwork
from repro.simnet import Network, SeededStreams, Simulator

#: Topology edits, connect weighted up so graphs get dense enough for
#: equal-length paths (where first-hop choice and order matter).
EDITS = ("connect",) * 4 + ("disconnect", "remove", "crash", "restart")


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.permutations(range(7)),
    st.lists(
        st.tuples(st.sampled_from(EDITS), st.integers(0, 6), st.integers(0, 6)),
        max_size=40,
    ),
)
def test_central_plane_matches_networkx(add_order, edits):
    """networkx is the oracle for the central plane's bookkeeping: after
    any sequence of topology edits the adjacency has the same node order,
    edge order and edge orientation (which sets the order ``partition``
    and ``heal`` cut and re-peer links in), and every broker's
    breadth-first next-hop table equals networkx's shortest-path first
    hops, in the same order."""
    bnet = BrokerNetwork(Network(Simulator(), SeededStreams(1)))
    oracle = nx.Graph()
    for index in add_order:
        bnet.add_broker(f"b{index}")
        oracle.add_node(f"b{index}")
    crashed = {}
    for edit, i, j in edits:
        a, b = f"b{i}", f"b{j}"
        live = a in oracle
        if edit == "connect" and live and b in oracle and a != b:
            if not oracle.has_edge(a, b):
                bnet.connect(a, b)
                oracle.add_edge(a, b)
        elif edit == "disconnect" and live and b in oracle and a != b:
            bnet.disconnect(a, b)
            if oracle.has_edge(a, b):
                oracle.remove_edge(a, b)
        elif edit == "remove" and live:
            bnet.remove_broker(a)
            oracle.remove_node(a)
        elif edit == "crash" and live:
            crashed[a] = set(oracle[a])
            bnet.crash_broker(a)
            oracle.remove_node(a)
        elif edit == "restart" and a in crashed:
            bnet.restart_broker(a)
            oracle.add_node(a)
            for peer in sorted(crashed.pop(a)):
                if peer in oracle:
                    oracle.add_edge(a, peer)
    assert list(bnet.graph) == list(oracle)
    assert bnet._edges() == list(oracle.edges)
    for name in oracle:
        paths = nx.single_source_shortest_path(oracle, name)
        expected = [(dest, path[1]) for dest, path in paths.items() if dest != name]
        assert list(bnet._first_hops(name).items()) == expected


TOPICS = ["/a", "/a/b", "/a/c", "/b", "/b/x/y"]
PATTERNS = ["/a", "/a/b", "/a/*", "/a/#", "/b/#", "/#", "/b"]


@st.composite
def broker_graphs(draw):
    """A random connected graph of 2..6 brokers."""
    count = draw(st.integers(min_value=2, max_value=6))
    # Random spanning tree + optional extra edges.
    edges = set()
    for node in range(1, count):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.add((parent, node))
    extra = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
        max_size=3,
    ))
    for a, b in extra:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return count, sorted(edges)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    broker_graphs(),
    st.lists(  # subscribers: (broker index, pattern index)
        st.tuples(st.integers(0, 5), st.integers(0, len(PATTERNS) - 1)),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, len(TOPICS) - 1),  # published topic
    st.integers(0, 5),  # publisher broker
)
def test_exactly_once_delivery_on_random_graphs(graph, subs, topic_index, pub_at):
    count, edges = graph
    sim = Simulator()
    net = Network(sim, SeededStreams(1))
    bnet = BrokerNetwork(net)
    for index in range(count):
        bnet.add_broker(f"b{index}")
    for a, b in edges:
        bnet.connect(f"b{a}", f"b{b}")

    from repro.broker.topic import match_topic

    topic = TOPICS[topic_index]
    received = {}
    for sub_index, (broker_index, pattern_index) in enumerate(subs):
        broker = bnet.broker(f"b{broker_index % count}")
        host = net.create_host(f"sub-host-{sub_index}")
        client = BrokerClient(host, client_id=f"sub-{sub_index}")
        client.connect(broker)
        pattern = PATTERNS[pattern_index]
        received[sub_index] = {"pattern": pattern, "events": []}
        client.subscribe(
            pattern,
            lambda event, si=sub_index: received[si]["events"].append(
                event.event_id
            ),
        )

    publisher_host = net.create_host("pub-host")
    publisher = BrokerClient(publisher_host, client_id="publisher")
    publisher.connect(bnet.broker(f"b{pub_at % count}"))
    sim.run_for(5.0)

    event = publisher.publish(topic, b"x", 100)
    sim.run_for(5.0)

    for sub_index, info in received.items():
        expected = 1 if match_topic(info["pattern"], topic) else 0
        assert len(info["events"]) == expected, (
            f"subscriber {sub_index} pattern {info['pattern']} topic {topic}: "
            f"got {len(info['events'])}, want {expected} "
            f"(graph {edges}, pub at b{pub_at % count})"
        )
        if expected:
            assert info["events"] == [event.event_id]
