"""Experiment control-failover: killing the XGSP leader mid-conference.

PR 3's chaos soak proved the broker *mesh* heals itself; this one proves
the *control plane* above it does too (DESIGN.md §5d).  Three XGSP
session-server replicas run against a 3-broker autonomous ring — one
leader, two hot standbys fed by the replicated journal.  A conference is
live (roster, floor holder, steady membership churn) when the leader is
killed un-announced by :meth:`repro.simnet.chaos.ChaosSchedule.kill_service`
with several joins still in flight.

Gated:

* **control outage**: the promoted standby's ``control_outage_s`` sample
  (time from the leader's last sign of life to promotion) stays within
  the same 1.5 s budget the media plane gets;
* **no lost joins**: every join issued before, during, and after the
  kill completes with exactly one ``JoinAccepted`` — in-flight requests
  are answered by replay-on-promotion, retried ones by duplicate
  suppression, never double-applied;
* **state survives**: the new leader's roster matches the set of joined
  participants exactly, and the floor holder granted before the kill
  still holds the floor after it;
* **exactly one leader** at the end — the second standby adopted the
  promoted replica instead of usurping it.

The soak is small, so ``quick`` runs it at full size.
"""

from repro.broker.network import BrokerNetwork
from repro.core.xgsp.client import XgspClient
from repro.core.xgsp.messages import JoinAccepted
from repro.core.xgsp.session_server import XgspSessionServer
from repro.simnet.chaos import ChaosSchedule
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

RUN_FOR_S = 20.0
PEER_HEARTBEAT_S = 0.25
PEER_MISS_LIMIT = 2

#: Replica-plane failure detector — same cadence as the broker mesh's,
#: so detection costs miss_limit beats (0.5 s) + one election tick.
REPLICA_HEARTBEAT_S = 0.25
REPLICA_MISS_LIMIT = 2

KILL_AT_S = 8.0

#: Joins arrive at this spacing throughout the run — guaranteeing several
#: are in flight (published, unanswered) at the instant of the kill.
JOIN_INTERVAL_S = 0.1
JOINER_COUNT = 60

#: Signaling retry posture for every participant (the gateways' default).
SIGNALING_RETRIES = 3

#: Control-plane outage budget: identical to the media-gap budget — a
#: stuck join is as user-visible as a frozen video.
MAX_CONTROL_OUTAGE_S = 1.5


def scenario(quick):
    sim = Simulator()
    net = Network(sim, SeededStreams(7))
    bnet = BrokerNetwork.ring(
        net, 3, autonomous=True,
        peer_heartbeat_interval_s=PEER_HEARTBEAT_S,
        peer_miss_limit=PEER_MISS_LIMIT,
    )
    sim.run_for(2.0)  # LSA convergence

    replicas = {}
    for index, name in enumerate(("xgsp-a", "xgsp-b", "xgsp-c")):
        replicas[name] = XgspSessionServer(
            net.create_host(f"{name}-host"),
            bnet.broker(f"broker-{index}"),
            server_id=name,
            replica_heartbeat_interval_s=REPLICA_HEARTBEAT_S,
            replica_miss_limit=REPLICA_MISS_LIMIT,
            standby=(index != 0),
        )
    sim.run_for(2.0)  # heartbeat discovery + standby snapshots
    ready = replicas["xgsp-a"].is_leader and all(
        replicas[name].caught_up for name in ("xgsp-b", "xgsp-c")
    )

    # A conference with a floor holder, established before the kill.
    chair = XgspClient(
        net.create_host("chair-host"), bnet.broker("broker-1"), "chair",
        max_retries=SIGNALING_RETRIES,
    )
    created = []
    chair.create_session("survivable", on_created=created.append)
    sim.run_for(0.5)
    session_id = created[0].session_id
    chair.join(session_id)
    floor_results = []
    chair.floor(session_id, "request",
                on_result=lambda r: floor_results.append(r.action))
    sim.run_for(0.5)

    # Steady membership churn across the kill window.
    accepted = {}   # participant -> list of JoinAccepted arrival times
    rejected = []
    joiners = []

    def start_join(index: int) -> None:
        participant = f"user-{index:03d}"
        client = XgspClient(
            net.create_host(f"{participant}-host"),
            bnet.broker(f"broker-{index % 3}"),
            participant,
            max_retries=SIGNALING_RETRIES,
        )
        joiners.append(client)
        accepted[participant] = []

        def on_result(response, who=participant) -> None:
            if isinstance(response, JoinAccepted):
                accepted[who].append(sim.now)
            else:
                rejected.append(who)

        client.join(session_id, on_result=on_result)

    first_join_at = sim.now + 0.5  # churn brackets the t=8 s kill
    for index in range(JOINER_COUNT):
        sim.schedule_at(first_join_at + index * JOIN_INTERVAL_S,
                        start_join, index)

    # The chaos schedule kills the leader mid-churn, un-announced.
    chaos = ChaosSchedule(bnet, seed=7)
    chaos.kill_service(KILL_AT_S, "xgsp-a", replicas["xgsp-a"].crash)

    sim.run_for(RUN_FOR_S)

    survivors = {name: replicas[name] for name in ("xgsp-b", "xgsp-c")}
    leaders = [name for name, server in survivors.items() if server.is_leader]
    if len(leaders) != 1:
        raise RuntimeError(f"split brain or dead control plane: {leaders}")
    new_leader = survivors[leaders[0]]
    follower = next(s for name, s in survivors.items() if name != leaders[0])
    session = new_leader.session(session_id)
    follower_session = follower.session(session_id)
    # Every join plus the chair, each applied once.
    expected_roster = {"chair"} | set(accepted)
    outage = new_leader.control_outage.max
    return {
        "params": {
            "brokers": 3,
            "replicas": 3,
            "replica_heartbeat_interval_s": REPLICA_HEARTBEAT_S,
            "replica_miss_limit": REPLICA_MISS_LIMIT,
            "kill_at_s": KILL_AT_S,
            "join_interval_s": JOIN_INTERVAL_S,
            "signaling_retries": SIGNALING_RETRIES,
            "control_outage_budget_s": MAX_CONTROL_OUTAGE_S,
        },
        "results": {
            "control_outage_s": outage,
            "joins_issued": len(accepted),
            "joins_lost": sum(1 for times in accepted.values() if not times),
            "joins_double_applied":
                sum(1 for times in accepted.values() if len(times) > 1),
            "joins_resolved_in_kill_window": sum(
                1 for times in accepted.values()
                for t in times if KILL_AT_S <= t <= KILL_AT_S + 2.0
            ),
            "client_retries_sent":
                sum(c.retries_sent for c in joiners) + chair.retries_sent,
            "client_timeouts":
                sum(c.timeouts for c in joiners) + chair.timeouts,
            "promotions": new_leader.promotions,
            "new_leader": new_leader.server_id,
            "duplicates_suppressed": new_leader.duplicates_suppressed,
            "inflight_replayed": new_leader.inflight_replayed,
            "ops_journaled_by_new_leader": new_leader.ops_journaled,
            "journal_version": new_leader.journal_version,
            "floor_holder_after_failover": session.floor_holder,
            "chaos_log": [
                {"at": e.at, "kind": e.kind, "detail": e.detail}
                for e in chaos.log
            ],
        },
        "gates": {
            "leader_and_caught_up_standbys_before_kill": ready,
            "floor_granted_before_kill": floor_results == ["grant"],
            "kill_happened": [e.kind for e in chaos.log] == ["kill-service"],
            "follower_adopted_new_leader":
                follower.leader_id == new_leader.server_id,
            "no_join_lost_or_double_answered": all(
                len(times) == 1 for times in accepted.values()
            ),
            "no_rejections_or_timeouts": not rejected
            and sum(c.timeouts for c in joiners) + chair.timeouts == 0,
            "roster_exactly_the_joined_set":
                set(session.roster.participants()) == expected_roster,
            "floor_survived": session.floor_holder == "chair",
            "survivors_agree":
                follower.journal_version == new_leader.journal_version
                and set(follower_session.roster.participants())
                == expected_roster
                and follower_session.floor_holder == "chair",
            "one_promotion_within_budget": new_leader.promotions == 1
            and new_leader.control_outage.count >= 1
            and outage <= MAX_CONTROL_OUTAGE_S,
        },
    }
