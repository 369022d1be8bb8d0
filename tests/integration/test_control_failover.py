"""Survivable control plane: replication, election, promotion, idempotency.

Covers DESIGN.md §5d end to end on a small broker ring: leader kill with
a join in flight, retry-after-promotion duplicate suppression, standby
snapshot catch-up, and the two-replica split where only the elected
leader applies ops.
"""

import pytest

from repro.broker.network import BrokerNetwork
from repro.core.xgsp.client import XgspClient
from repro.core.xgsp.messages import JoinAccepted, JoinSession
from repro.core.xgsp.session_server import XgspSessionServer
from repro.simnet.chaos import ChaosSchedule

HB = 0.25
MISS = 2

#: Worst-case leader-death detection: MISS beats + one election tick.
DETECT_S = HB * (MISS + 1)


def build_ring(net, n=3):
    bnet = BrokerNetwork.ring(net, n, autonomous=True)
    net.sim.run_for(2.0)  # LSA convergence
    return bnet


def make_replica(net, bnet, index, name, standby, **kwargs):
    return XgspSessionServer(
        net.create_host(f"{name}-host"),
        bnet.broker(f"broker-{index % len(bnet)}"),
        server_id=name,
        replica_heartbeat_interval_s=HB,
        replica_miss_limit=MISS,
        standby=standby,
        **kwargs,
    )


def make_client(net, bnet, participant, broker_index=0, retries=3):
    return XgspClient(
        net.create_host(f"{participant}-host"),
        bnet.broker(f"broker-{broker_index}"),
        participant,
        max_retries=retries,
    )


def create_session(sim, client, title="conf"):
    created = []
    client.create_session(title, on_created=created.append)
    sim.run_for(0.5)
    assert created, "session was not created"
    return created[0].session_id


def join_then_take_floor(sim, client, session_id):
    """Join, wait for the answer, then request the floor.  One client's
    XGSP requests are not ordered with respect to each other (DESIGN.md
    §5d): sent back to back, jitter may deliver the floor request first
    and it is refused for a non-member."""
    joined = []
    client.join(session_id, on_result=joined.append)
    for _ in range(100):
        if joined:
            break
        sim.run_for(0.01)
    assert [type(r).__name__ for r in joined] == ["JoinAccepted"]
    client.floor(session_id, "request")


# ----------------------------------------------------------- replication


def test_standby_maintains_hot_copy(sim, net):
    bnet = build_ring(net)
    leader = make_replica(net, bnet, 0, "xgsp-a", standby=False)
    standby = make_replica(net, bnet, 1, "xgsp-b", standby=True)
    sim.run_for(1.5)
    assert leader.is_leader and not standby.is_leader
    assert standby.leader_id == "xgsp-a"
    assert standby.caught_up

    alice = make_client(net, bnet, "alice", broker_index=2)
    session_id = create_session(sim, alice)
    join_then_take_floor(sim, alice, session_id)
    sim.run_for(1.0)

    # The standby applied every journaled op without answering anything.
    copy = standby.session(session_id)
    assert copy is not None
    assert copy.roster.participants() == ["alice"]
    assert copy.floor_holder == "alice"
    assert standby.journal_version == leader.journal_version
    assert standby.ops_applied == leader.ops_journaled
    assert standby.requests_handled == 0


def test_leader_kill_mid_join_completes_and_floor_survives(sim, net):
    bnet = build_ring(net)
    leader = make_replica(net, bnet, 0, "xgsp-a", standby=False)
    standby = make_replica(net, bnet, 1, "xgsp-b", standby=True)
    sim.run_for(1.5)

    alice = make_client(net, bnet, "alice", broker_index=2)
    session_id = create_session(sim, alice)
    join_then_take_floor(sim, alice, session_id)
    sim.run_for(1.0)

    # Bob's join is published but the leader dies before answering.
    bob = make_client(net, bnet, "bob", broker_index=2)
    results = []
    bob.join(session_id, on_result=results.append)
    leader.crash()
    sim.run_for(6.0)

    assert standby.is_leader and standby.promotions == 1
    assert [type(r).__name__ for r in results] == ["JoinAccepted"]
    assert bob.timeouts == 0
    session = standby.session(session_id)
    assert sorted(session.roster.participants()) == ["alice", "bob"]
    assert session.floor_holder == "alice"
    # The outage the promotion observed is within the detection bound
    # plus scheduling slack.
    assert standby.control_outage.count == 1
    assert standby.control_outage.max <= DETECT_S + 2 * HB


def test_retry_after_promotion_is_duplicate_suppressed(sim, net):
    bnet = build_ring(net)
    leader = make_replica(net, bnet, 0, "xgsp-a", standby=False)
    standby = make_replica(net, bnet, 1, "xgsp-b", standby=True)
    sim.run_for(1.5)

    alice = make_client(net, bnet, "alice", broker_index=2)
    session_id = create_session(sim, alice)
    sim.run_for(0.5)

    # The join is applied and journaled by the old leader; the client
    # then retries the SAME message (same request id) against the new
    # leader, as if the response were lost in the failover.
    join = JoinSession(session_id=session_id, participant="alice")
    responses = []
    alice.request(join, on_response=responses.append)
    sim.run_for(0.5)
    assert len(responses) == 1 and isinstance(responses[0], JoinAccepted)
    applied_version = leader.journal_version

    leader.crash()
    sim.run_for(3.0)
    assert standby.is_leader

    retried = []
    alice.request(join, on_response=retried.append)
    sim.run_for(1.0)

    # Answered from the replicated dedup table, never re-applied.
    assert len(retried) == 1 and isinstance(retried[0], JoinAccepted)
    assert retried[0].request_id == join.request_id
    assert standby.duplicates_suppressed >= 1
    assert standby.journal_version == applied_version
    assert standby.session(session_id).roster.participants() == ["alice"]


def test_late_standby_catches_up_via_snapshot(sim, net):
    bnet = build_ring(net)
    leader = make_replica(net, bnet, 0, "xgsp-a", standby=False)
    sim.run_for(1.0)

    # State accumulates before the standby even exists.
    alice = make_client(net, bnet, "alice", broker_index=2)
    session_id = create_session(sim, alice)
    join_then_take_floor(sim, alice, session_id)
    sim.run_for(1.0)

    late = make_replica(net, bnet, 1, "xgsp-c", standby=True)
    sim.run_for(2.0)

    assert late.caught_up
    assert late.snapshots_installed >= 1
    assert leader.snapshots_served >= 1
    copy = late.session(session_id)
    assert copy is not None
    assert copy.roster.participants() == ["alice"]
    assert copy.floor_holder == "alice"
    assert late.journal_version == leader.journal_version

    # ...and it keeps applying the live journal after the snapshot.
    bob = make_client(net, bnet, "bob", broker_index=2)
    bob.join(session_id)
    sim.run_for(1.0)
    assert sorted(copy.roster.participants()) == ["alice", "bob"]


def test_only_elected_leader_applies_ops_in_two_replica_split(sim, net):
    """Both replicas believe they lead; the min-id tie-break wins.

    ``xgsp-a`` (min id) and ``xgsp-z`` are both started as non-standby —
    the worst bootstrap misconfiguration.  The first heartbeat exchange
    demotes ``xgsp-z``; from then on only ``xgsp-a`` answers requests
    and journals ops.
    """
    bnet = build_ring(net)
    low = make_replica(net, bnet, 0, "xgsp-a", standby=False)
    high = make_replica(net, bnet, 1, "xgsp-z", standby=False)
    sim.run_for(1.5)

    assert low.is_leader
    assert not high.is_leader
    assert high.leader_id == "xgsp-a"
    assert high.demotions == 1

    alice = make_client(net, bnet, "alice", broker_index=2)
    session_id = create_session(sim, alice)
    alice.join(session_id)
    sim.run_for(1.0)

    # Only the elected leader handled and journaled; the loser applied.
    assert low.ops_journaled > 0
    assert high.requests_handled == 0
    assert high.ops_applied == low.ops_journaled
    assert high.session(session_id).roster.participants() == ["alice"]


def test_second_standby_adopts_promoted_leader(sim, net):
    """After a kill, exactly one of two standbys promotes (min id)."""
    bnet = build_ring(net)
    leader = make_replica(net, bnet, 0, "xgsp-a", standby=False)
    standby_b = make_replica(net, bnet, 1, "xgsp-b", standby=True)
    standby_c = make_replica(net, bnet, 2, "xgsp-c", standby=True)
    sim.run_for(1.5)

    alice = make_client(net, bnet, "alice", broker_index=1)
    session_id = create_session(sim, alice)
    sim.run_for(0.5)

    leader.crash()
    sim.run_for(4.0)

    assert standby_b.is_leader and standby_b.promotions == 1
    assert not standby_c.is_leader and standby_c.promotions == 0
    assert standby_c.leader_id == "xgsp-b"
    # The non-promoted standby still follows the new journal.
    bob = make_client(net, bnet, "bob", broker_index=2)
    bob.join(session_id)
    sim.run_for(1.0)
    assert standby_c.session(session_id).roster.participants() == ["bob"]
    assert standby_c.journal_version == standby_b.journal_version


@pytest.mark.slow
def test_session_server_kill_soak(sim, net):
    """Nightly soak: two successive un-announced leader kills under
    steady membership churn.  The last replica standing must end up sole
    leader with every join completed exactly once and the floor intact."""
    bnet = build_ring(net)
    replicas = {
        name: make_replica(net, bnet, index, name, standby=(index != 0))
        for index, name in enumerate(("xgsp-a", "xgsp-b", "xgsp-c"))
    }
    sim.run_for(1.5)

    chair = make_client(net, bnet, "chair", broker_index=1)
    session_id = create_session(sim, chair)
    chair.join(session_id)
    chair.floor(session_id, "request")
    sim.run_for(1.0)

    accepted = {}
    joiners = []

    def start_join(index: int) -> None:
        participant = f"soak-{index:03d}"
        client = make_client(net, bnet, participant, broker_index=index % 3)
        joiners.append(client)
        accepted[participant] = 0

        def on_result(response, who=participant) -> None:
            assert isinstance(response, JoinAccepted)
            accepted[who] += 1

        client.join(session_id, on_result=on_result)

    first_join_at = sim.now + 0.5
    for index in range(40):
        sim.schedule_at(first_join_at + index * 0.2, start_join, index)

    chaos = ChaosSchedule(bnet, seed=11)
    chaos.kill_service(sim.now + 2.0, "xgsp-a", replicas["xgsp-a"].crash)
    chaos.kill_service(sim.now + 5.0, "xgsp-b", replicas["xgsp-b"].crash)
    sim.run_for(14.0)

    last = replicas["xgsp-c"]
    assert last.is_leader and last.promotions == 1
    assert [e.kind for e in chaos.log] == ["kill-service", "kill-service"]
    assert all(count == 1 for count in accepted.values()), accepted
    assert sum(c.timeouts for c in joiners) == 0
    session = last.session(session_id)
    assert set(session.roster.participants()) == {"chair"} | set(accepted)
    assert session.floor_holder == "chair"


def test_standalone_server_is_unchanged(sim, net):
    """No replication knobs -> the seed behaviour: no heartbeats, no
    journal traffic, leader from birth."""
    bnet = build_ring(net)
    server = XgspSessionServer(
        net.create_host("solo-host"), bnet.broker("broker-0")
    )
    sim.run_for(0.5)  # connect + subscription propagation
    assert server.is_leader
    alice = make_client(net, bnet, "alice", broker_index=1, retries=0)
    session_id = create_session(sim, alice)
    results = []
    alice.join(session_id, on_result=results.append)
    sim.run_for(1.0)
    assert isinstance(results[0], JoinAccepted)
    assert server.ops_journaled > 0  # dedup table still records locally
    assert server.promotions == 0
    assert server.replica_heartbeats_received == 0


# -------------------------------------------------- geo minority quorum


def test_minority_standby_refuses_promotion_without_quorum(sim, net):
    """With ``quorum_size=2`` a standby that can see no other replica
    (the minority side of a regional partition, or the last survivor)
    must refuse to promote itself — a cut-off region electing its own
    XGSP leader would fork the session journal."""
    bnet = build_ring(net)
    leader = make_replica(net, bnet, 0, "xgsp-a", standby=False,
                          quorum_size=2)
    standby = make_replica(net, bnet, 1, "xgsp-b", standby=True,
                           quorum_size=2)
    sim.run_for(1.5)
    assert leader.is_leader and standby.caught_up

    leader.crash()
    sim.run_for(4.0)
    # Election picked the standby, but alone it is below quorum.
    assert not standby.is_leader
    assert standby.promotions_refused >= 1

    # A second replica restores quorum; the refusal is re-evaluated on
    # the next tick and the promotion goes through.
    make_replica(net, bnet, 2, "xgsp-c", standby=True, quorum_size=2)
    sim.run_for(4.0)
    assert standby.is_leader
    assert standby.promotions == 1
