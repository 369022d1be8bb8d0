"""Session-server replication: the plane a server builds only when replicated.

An :class:`~repro.core.xgsp.session_server.XgspSessionServer` given
``replica_heartbeat_interval_s`` owns one :class:`Replication`
(DESIGN.md §5d): heartbeats and eviction, the min-id election and its
quorum refusal, journal receive, snapshot request and serve, and
promotion with in-flight replay.  A replica's role is one field —
``leading``, ``following``, ``leaderless`` or ``closed`` — changed only
by :meth:`Replication.become`, which owns each transition's side
effects.  Session state changes only through the server's ``_apply``.
"""

from __future__ import annotations

import logging
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.broker.event import NBEvent
from repro.core.xgsp.messages import (
    ReplicaHeartbeat,
    SessionAnnouncement,
    SessionOp,
    SnapshotRequest,
    SnapshotResponse,
)
from repro.core.xgsp.session import Session

JOURNAL_TOPIC = "/xgsp/journal"
REPLICA_TOPIC = "/xgsp/control/replicas"

#: Bound on a standby's buffered in-flight requests.
INFLIGHT_BUFFER_MAX = 512

#: Window (s) within which a promoted standby replays buffered requests
#: the dead leader never journaled an answer for.
INFLIGHT_REPLAY_WINDOW_S = 10.0

LEADING = "leading"
FOLLOWING = "following"
LEADERLESS = "leaderless"
CLOSED = "closed"

_log = logging.getLogger(__name__)


def replica_topic(server_id: str) -> str:
    """Per-replica control topic (snapshot responses land here)."""
    return f"/xgsp/control/replica/{server_id.replace('/', '-')}"


class Replication:
    """Replica role, election and catch-up of one session server."""

    def __init__(self, server, interval_s: float, miss_limit: int,
                 standby: bool, quorum_size: Optional[int]):
        self.server = server
        self.sim = server.sim
        self.interval_s = interval_s
        self.miss_limit = miss_limit
        #: Split-brain guard: a replica that can see fewer than this many
        #: live replicas (itself included) refuses promotion, so the
        #: minority side of a partition keeps following.
        self.quorum_size = quorum_size
        self.role = LEADERLESS if standby else LEADING
        #: Who this replica believes leads (itself, when leading).
        self.leader: Optional[str] = None if standby else server.server_id
        self.caught_up = not standby
        #: Live peers: server id -> last time heard.
        self.last_seen: Dict[str, float] = {}
        self._epoch = 0  # bumped whenever the live set changes
        self._election_epoch = -1
        self._elected: Optional[str] = None
        self.leader_last_seen = self.sim.now
        self._started_at = self.sim.now
        self.pending: List[SessionOp] = []
        self.inflight: Deque[Tuple[float, Dict[str, Any]]] = deque(
            maxlen=INFLIGHT_BUFFER_MAX
        )
        client = server.client
        client.subscribe(JOURNAL_TOPIC, self._on_journal_event)
        client.subscribe(REPLICA_TOPIC, self._on_replica_event)
        client.subscribe(replica_topic(server.server_id), self._on_replica_event)
        if standby:
            self._request_snapshot()
        self._timer = self.sim.schedule(interval_s, self._tick)

    # ------------------------------------------------------------- role

    def become(self, role: str, leader: Optional[str] = None) -> None:
        """The one role transition.  ``leader`` names whom a ``following``
        replica follows; ``closed`` is terminal."""
        if self.role == CLOSED:
            return
        previous, self.role = self.role, role
        server = self.server
        if role == FOLLOWING:
            self.leader = leader
            self.leader_last_seen = self.sim.now
            if previous == LEADING:
                server.demotions += 1
                _log.debug("%s demoted in favour of %s", server.server_id, leader)
        elif role == LEADERLESS:
            self.leader = None
        elif role == LEADING:
            self._promote()
        elif self._timer is not None:  # closed: stop beating
            self._timer.cancel()
            self._timer = None

    def _promote(self) -> None:
        """A standby takes over: record the outage, re-announce every
        active session, and replay buffered in-flight requests."""
        server = self.server
        now = self.sim.now
        outage = now - self.leader_last_seen
        server.control_outage.observe(outage)
        self.leader = server.server_id
        server.promotions += 1
        self.caught_up = True  # leading now; nobody left to catch up from
        self.pending.clear()
        _log.debug(
            "%s promoted to leader after %.3fs outage (journal v%d)",
            server.server_id, outage, server.journal_version,
        )
        for session in server.active_sessions():
            server._announce(
                SessionAnnouncement(
                    session_id=session.session_id,
                    event="leader-changed",
                    participant=server.server_id,
                    detail=f"journal-v{server.journal_version}",
                )
            )
        inflight = list(self.inflight)
        self.inflight.clear()
        for at, payload in inflight:
            if now - at > INFLIGHT_REPLAY_WINDOW_S:
                continue
            message = server._decode(payload, "in-flight request")
            if message is None:
                continue
            reply_to = payload.get("reply_to")
            key = server._request_key(reply_to, message)
            # The dead leader applied and journaled it: just answer.
            if not server._answer_duplicate(key, reply_to):
                server.inflight_replayed += 1
                server._handle_and_reply(message, reply_to, key)

    def buffer(self, payload: Dict[str, Any]) -> None:
        """Keep a request a standby heard for replay on promotion (the
        oldest drops first past ``INFLIGHT_BUFFER_MAX``)."""
        self.inflight.append((self.sim.now, payload))

    # ---------------------------------------------------------- journal

    def _on_journal_event(self, event: NBEvent) -> None:
        server = self.server
        op = server._decode(event.payload, "journal op")
        if not isinstance(op, SessionOp) or op.leader == server.server_id:
            return
        # Journal traffic is authoritative leader traffic.
        self._seen(op.leader)
        self.leader_last_seen = self.sim.now
        if self.role == LEADING and op.leader > server.server_id:
            return  # we outrank the claimant; it steps down on our beat
        # Follow the sender; a larger-id leader steps down (split-brain
        # heal: the minimum id wins).
        self.become(FOLLOWING, op.leader)
        if not self.caught_up:
            self.pending.append(op)
        elif op.version > server.journal_version + 1:
            # Missed an op (lossy interval, late subscription): fall back
            # to a full snapshot rather than apply with a hole.
            self.caught_up = False
            self.pending.append(op)
            self._request_snapshot()
        else:
            self._follow(op)

    def _follow(self, op: SessionOp) -> None:
        if op.version <= self.server.journal_version:
            return  # duplicate / already snapshot-covered
        self.server._apply(op)
        self.server.ops_applied += 1

    # ---------------------------------------------------- replica plane

    def _on_replica_event(self, event: NBEvent) -> None:
        message = self.server._decode(event.payload, "replica message")
        if isinstance(message, ReplicaHeartbeat):
            self._on_heartbeat(message)
        elif isinstance(message, SnapshotRequest):
            self._serve_snapshot(message)
        elif isinstance(message, SnapshotResponse):
            self._install_snapshot(message)

    def _seen(self, server_id: str) -> None:
        if server_id == self.server.server_id:
            return
        if server_id not in self.last_seen:
            self._epoch += 1
        self.last_seen[server_id] = self.sim.now

    def _on_heartbeat(self, beat: ReplicaHeartbeat) -> None:
        server = self.server
        if beat.server_id == server.server_id:
            return  # own echo off the broker fan-out
        server.replica_heartbeats_received += 1
        self._seen(beat.server_id)
        if beat.leader == beat.server_id:
            # The sender claims leadership; if we lead and outrank it,
            # it steps down on our next beat.
            if self.role != LEADING or beat.server_id < server.server_id:
                self.become(FOLLOWING, beat.server_id)
        elif beat.server_id == self.leader:
            self.leader_last_seen = self.sim.now

    def _tick(self) -> None:
        self._timer = None
        server = self.server
        server._publish_xml(
            REPLICA_TOPIC,
            ReplicaHeartbeat(
                server_id=server.server_id,
                leader=self.leader or "",
                version=server.journal_version,
                epoch=self._epoch,
            ),
        )
        # Evict replicas silent for miss_limit intervals (same rule as
        # the broker mesh's peer heartbeats).
        now = self.sim.now
        deadline = now - self.interval_s * self.miss_limit
        for server_id, last_seen in list(self.last_seen.items()):
            if last_seen < deadline:
                del self.last_seen[server_id]
                self._epoch += 1
                if server_id == self.leader:
                    self.become(LEADERLESS)
        # Give a fresh standby one detection window to discover an
        # incumbent before electing over the live set.
        grace = self.interval_s * (self.miss_limit + 1)
        if self.role == LEADERLESS and (
            self.last_seen or now - self._started_at > grace
        ):
            elected = self._elect()
            live = 1 + len(self.last_seen)
            if elected != server.server_id:
                self.become(FOLLOWING, elected)
            elif self.quorum_size is None or live >= self.quorum_size:
                self.become(LEADING)
            else:
                # Minority side of a partition: refuse the crown rather
                # than fork the control plane.  Re-checked every tick, so
                # promotion follows the heal (or a quorum of replicas
                # rejoining) automatically.
                server.promotions_refused += 1
                _log.debug(
                    "%s refuses promotion: %d live replicas < quorum %d",
                    server.server_id, live, self.quorum_size,
                )
        if not self.caught_up and self.role == FOLLOWING:
            # Late joiner still waiting for state: nudge the leader again
            # (the first request may have raced its subscription).
            self._request_snapshot()
        self._timer = self.sim.schedule(self.interval_s, self._tick)

    def _elect(self) -> str:
        """Deterministic leader election: the minimum live server id,
        cached per replica-set epoch (the sequencer-election pattern)."""
        if self._election_epoch != self._epoch:
            self._elected = min([self.server.server_id, *self.last_seen])
            self._election_epoch = self._epoch
        return self._elected

    # -------------------------------------------------------- snapshots

    def _request_snapshot(self) -> None:
        self.server._publish_xml(
            REPLICA_TOPIC, SnapshotRequest(server_id=self.server.server_id)
        )

    def _serve_snapshot(self, request: SnapshotRequest) -> None:
        server = self.server
        if request.server_id == server.server_id or self.role != LEADING:
            return
        self._seen(request.server_id)
        server.snapshots_served += 1
        server._publish_xml(
            replica_topic(request.server_id),
            SnapshotResponse(
                version=server.journal_version,
                leader=server.server_id,
                sessions=[session.to_snapshot() for session in server.sessions()],
                applied=[
                    {"key": key, "response_xml": response_xml}
                    for key, response_xml in server._applied.items()
                ],
            ),
        )

    def _install_snapshot(self, response: SnapshotResponse) -> None:
        server = self.server
        if self.caught_up or self.role == LEADING:
            return
        self._seen(response.leader)
        server._sessions = {
            data["session_id"]: Session.from_snapshot(data)
            for data in response.sessions
        }
        server._applied = OrderedDict(
            (entry["key"], entry["response_xml"]) for entry in response.applied
        )
        server._journal_version = response.version
        self.become(FOLLOWING, response.leader)
        self.caught_up = True
        server.snapshots_installed += 1
        pending = sorted(self.pending, key=lambda op: op.version)
        self.pending = []
        for op in pending:
            if op.version > server.journal_version + 1:
                # Hole inside the buffered tail: ask again — the next
                # snapshot's version will cover the missing op.
                self.caught_up = False
                self.pending = [
                    later for later in pending
                    if later.version > server.journal_version
                ]
                self._request_snapshot()
                return
            self._follow(op)
