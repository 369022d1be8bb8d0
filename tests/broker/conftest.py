"""Broker test fixtures."""

import pytest

from repro.broker import Broker, BrokerClient, BrokerNetwork, LinkType


@pytest.fixture
def single_broker(net):
    """One broker on its own host."""
    host = net.create_host("broker-host")
    return Broker(host, broker_id="b0")


def make_client(
    net, sim, broker, name, link_type=LinkType.UDP, host=None, failover=None
):
    """Create a connected client and run the handshake to completion."""
    if host is None:
        host = net.create_host(name)
    client = BrokerClient(host, client_id=name, failover=failover)
    client.connect(broker, link_type=link_type)
    sim.run_for(1.0)
    assert client.connected, f"{name} failed to connect over {link_type}"
    return client


def assert_maintained_state(brokers):
    """Every aggregate a broker maintains incrementally equals its
    from-scratch definition: the gateway's tracked member interest is
    ``_local_subs ∪ non-foreign _remote_interest`` (holder counts
    included), and the outbox tally is the per-client sum.  Only a
    gateway builds the overlay that tracks member interest.  A live
    broker holds local interest only for clients it has a record of
    (``close()`` keeps the trie of a closed one)."""
    for broker in brokers:
        assert broker._outbox_depth() == sum(
            record.outbox.pending_count
            for record in broker._clients.values()
            if record.outbox is not None
        ), broker.broker_id
        if not broker._closed:
            leaked = set(broker._local_subs.values()) - set(broker._clients)
            assert not leaked, (broker.broker_id, sorted(leaked))
        gateway = broker.gateway
        if not broker.is_gateway:
            assert gateway is None, broker.broker_id
            continue
        holders = {
            pattern: broker._local_subs.refcount(pattern)
            for pattern in broker._local_subs.all_patterns()
        }
        foreign = gateway.foreign_origins()
        for origin in set(broker._remote_interest.values()) - foreign:
            for pattern in broker._remote_interest.patterns_for(origin):
                holders[pattern] = holders.get(pattern, 0) + 1
        assert gateway.member_interest._refs == holders, broker.broker_id
