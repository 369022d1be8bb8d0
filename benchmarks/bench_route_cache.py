"""Experiment perf-route-cache: the broker dissemination fast path.

The paper's scaling claim assumes per-event routing work stays flat as
subscribers and brokers are added.  This harness measures the Python-level
routing work of the reproduction itself — resolve the fan-out for a
topic at a broker carrying 100+ subscribers in an 8-broker star — as a
:class:`~repro.broker.route_cache.RouteCache` hit (the hot topic) and as
a miss (a fresh topic with the same fan-out on every call, which runs
the full resolve), and checks that the hit is **≥2× faster** in
wall-clock terms (it is typically ≥10×).  That a cached entry equals the
freshly resolved one is a unit test
(``tests/broker/test_route_cache.py``), and the cache never touches
simulated time (golden trace digests, ``tests/golden/``).

Results land in ``BENCH_route_cache.json`` (via
:func:`repro.bench.reporting.json_artifact`) so future PRs can track the
routing-path trajectory.  ``resolve_uncached_us_per_event`` is the cost
of a *miss* — the full resolve plus storing the entry, and one
``clear()`` per 2000 resolves — against ``SESSION/#`` subscriptions; up
to PR 11 it timed ``route_cache_enabled=False`` against exact-topic
subscriptions, so the figure is not comparable with earlier rows.
"""

import time

from repro.bench.reporting import json_artifact, simple_table
from repro.bench.workload import GIGABIT_LAN
from repro.broker.client import BrokerClient
from repro.broker.network import BrokerNetwork
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

SESSION = "/bench/route-cache/session-0"
TOPIC = f"{SESSION}/video"
SUBSCRIBERS = 120
BROKERS = 8
RESOLVE_ITERATIONS = 2000
TIMING_REPEATS = 5


def build_network():
    """An 8-broker star with SUBSCRIBERS subscribers spread across it,
    all subscribed to the whole session so every topic under it resolves
    to the same fan-out."""
    sim = Simulator()
    net = Network(sim, SeededStreams(0))
    bnet = BrokerNetwork.star(net, leaves=BROKERS - 1, link=GIGABIT_LAN)
    brokers = bnet.brokers()
    hub = bnet.broker("broker-hub")

    hosts = [
        net.create_host(f"client-machine-{i}", link=GIGABIT_LAN)
        for i in range(4)
    ]
    for index in range(SUBSCRIBERS):
        client = BrokerClient(hosts[index % len(hosts)],
                              client_id=f"r{index:03d}")
        client.connect(brokers[index % len(brokers)])
        client.subscribe(f"{SESSION}/#", lambda event: None)
    sim.run_for(5.0)
    return bnet, hub


def best_of(fn, repeats: int = TIMING_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_routing_work_speedup(measure):
    """Cached fan-out resolution beats the full resolve ≥2×."""
    bnet, hub = build_network()

    # Uncached = a fresh topic every call (always a miss: two trie
    # matches, the local sort, next-hop grouping); cached = the hot topic.
    fresh_routes = [f"{SESSION}/v{i}" for i in range(RESOLVE_ITERATIONS)]
    hot = hub.resolve_route(TOPIC)
    cold = hub.resolve_route(fresh_routes[0])
    assert len(hot.local_targets) == SUBSCRIBERS // BROKERS
    assert (cold.local_targets, cold.next_hop_groups) == (
        hot.local_targets, hot.next_hop_groups
    )
    hub.route_cache.clear()

    def resolve_uncached():
        for topic in fresh_routes:
            hub.resolve_route(topic)
        hub.route_cache.clear()

    def resolve_cached():
        hub.resolve_route(TOPIC)  # warm
        for _ in range(RESOLVE_ITERATIONS):
            hub.resolve_route(TOPIC)

    uncached_s = best_of(resolve_uncached)
    cached_s = measure(lambda: best_of(resolve_cached))

    # Sequencer elections: uncached = a fresh topic every call (always a
    # miss, 8 SHA-256 digests); cached = the hot topic (dict hit).
    fresh_topics = [f"/bench/ordered/s{i}" for i in range(RESOLVE_ITERATIONS)]

    def elect_uncached():
        for topic in fresh_topics:
            hub.sequencer_for(topic)
        hub._sequencers.clear()

    def elect_cached():
        hub.sequencer_for(TOPIC)  # warm
        for _ in range(RESOLVE_ITERATIONS):
            hub.sequencer_for(TOPIC)

    elect_uncached_s = best_of(elect_uncached)
    elect_cached_s = best_of(elect_cached)

    resolve_speedup = uncached_s / cached_s
    elect_speedup = elect_uncached_s / elect_cached_s
    per_event_us = uncached_s / RESOLVE_ITERATIONS * 1e6
    per_hit_us = cached_s / RESOLVE_ITERATIONS * 1e6

    print(simple_table(
        f"Routing fast path — {SUBSCRIBERS} subscribers, {BROKERS} brokers",
        [
            ("resolve_route (uncached)", f"{per_event_us:.2f}", "1.0x"),
            ("resolve_route (cached)", f"{per_hit_us:.2f}",
             f"{resolve_speedup:.1f}x"),
            ("sequencer_for (uncached)",
             f"{elect_uncached_s / RESOLVE_ITERATIONS * 1e6:.2f}", "1.0x"),
            ("sequencer_for (cached)",
             f"{elect_cached_s / RESOLVE_ITERATIONS * 1e6:.2f}",
             f"{elect_speedup:.1f}x"),
        ],
        ("path", "per-event µs", "speedup"),
    ))

    json_artifact("route_cache", {
        "subscribers": SUBSCRIBERS,
        "brokers": BROKERS,
        "resolve_iterations": RESOLVE_ITERATIONS,
        "resolve_uncached_us_per_event": per_event_us,
        "resolve_cached_us_per_event": per_hit_us,
        "resolve_speedup": resolve_speedup,
        "sequencer_uncached_us_per_event":
            elect_uncached_s / RESOLVE_ITERATIONS * 1e6,
        "sequencer_cached_us_per_event":
            elect_cached_s / RESOLVE_ITERATIONS * 1e6,
        "sequencer_speedup": elect_speedup,
        "hub_cache_stats": hub.route_cache.stats(),
    })

    assert resolve_speedup >= 2.0, (
        f"routing fast path only {resolve_speedup:.2f}x faster"
    )
    assert elect_speedup >= 2.0, (
        f"sequencer cache only {elect_speedup:.2f}x faster"
    )
    bnet.close()
