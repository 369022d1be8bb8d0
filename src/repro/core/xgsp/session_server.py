"""The XGSP Session Server.

"The XGSP Session Server translates the high-level command from the XGSP
Web Server into signaling messages of XGSP, and sends these signaling
messages to the NaradaBrokering servers to create a publish/subscribe
session" (Section 3.2).

Signaling plane (all XGSP XML over broker topics):

* requests:       ``/xgsp/signaling/server`` (every replica subscribes)
* responses:      ``/xgsp/signaling/client/<participant>``
* announcements:  ``/xgsp/announcements`` and each session's control topic
* journal:        ``/xgsp/journal`` (leader → standbys, versioned ops)
* replica plane:  ``/xgsp/control/replicas`` + ``/xgsp/control/replica/<id>``

Requests arrive as ``{"xml": <encoded message>, "reply_to": <topic>}``
events; the reply_to wrapper is transport addressing (the XGSP equivalent
of a UDP source address), not protocol content.

Survivability (DESIGN.md §5d): run N replicas with
``replica_heartbeat_interval_s`` set — one leader (the first non-standby,
or the deterministic minimum server id after a death) answers requests
and journals every state mutation as a versioned :class:`SessionOp`;
standbys apply the journal to keep hot copies, catch up via snapshot
when they join late, and promote on leader-heartbeat loss, re-announcing
active sessions and replaying buffered in-flight requests.  Duplicate
suppression on ``(reply_to, request_id)`` makes retried requests safe:
a retried ``JoinSession`` is answered from the recorded response, never
double-applied.  The election mirrors the broker's sequencer election —
a deterministic minimum over the live replica set, cached per
replica-set epoch (the control-plane analogue of the broker-set epoch).
"""

from __future__ import annotations

import logging
from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.broker.broker import Broker
from repro.broker.client import BrokerClient
from repro.broker.event import NBEvent
from repro.broker.links import LinkType
from repro.core.xgsp import xml_codec
from repro.core.xgsp.messages import (
    CreateSession,
    FloorAction,
    FloorControl,
    InviteUser,
    JoinAccepted,
    JoinRejected,
    JoinSession,
    LeaveSession,
    ListSessions,
    MuteMember,
    ReplicaHeartbeat,
    SessionAnnouncement,
    SessionBusy,
    SessionCreated,
    SessionList,
    SessionOp,
    SessionTerminated,
    SnapshotRequest,
    SnapshotResponse,
    TerminateSession,
    XgspError,
)
from repro.core.xgsp.roster import Member
from repro.core.xgsp.session import Session, SessionState, allocate_session_id
from repro.obs.metrics import SIGNALING_BUCKETS_S, MetricsRegistry
from repro.simnet.node import Host

SERVER_TOPIC = "/xgsp/signaling/server"
ANNOUNCEMENTS_TOPIC = "/xgsp/announcements"
JOURNAL_TOPIC = "/xgsp/journal"
REPLICA_TOPIC = "/xgsp/control/replicas"

_log = logging.getLogger(__name__)


def client_topic(participant: str) -> str:
    """The reply topic of one signaling participant."""
    return f"/xgsp/signaling/client/{participant.replace('/', '-')}"


def replica_topic(server_id: str) -> str:
    """Per-replica control topic (snapshot responses land here)."""
    return f"/xgsp/control/replica/{server_id.replace('/', '-')}"


#: Wire overhead of the signaling event wrapper.
WRAPPER_BYTES = 32

#: Bound on the replicated duplicate-suppression table.
APPLIED_CACHE_MAX = 4096

#: Bound on a standby's buffered in-flight requests.
INFLIGHT_BUFFER_MAX = 512

#: Default window (s) within which a promoted standby replays buffered
#: requests the dead leader never journaled an answer for.
INFLIGHT_REPLAY_WINDOW_S = 10.0


class XgspSessionServer:
    """Session management + signaling endpoint on the broker network.

    Standalone by default (one server, always leader — the seed
    behaviour).  With ``replica_heartbeat_interval_s`` set the server
    joins the replica group: ``standby=False`` starts leading,
    ``standby=True`` starts following (journal apply + snapshot
    catch-up) and promotes on leader death.
    """

    def __init__(
        self,
        host: Host,
        broker: Broker,
        server_id: str = "xgsp-session-server",
        link_type: LinkType = LinkType.TCP,
        metrics: Optional[MetricsRegistry] = None,
        replica_heartbeat_interval_s: Optional[float] = None,
        replica_miss_limit: int = 3,
        standby: bool = False,
        inflight_replay_window_s: float = INFLIGHT_REPLAY_WINDOW_S,
        max_inflight_requests: Optional[int] = None,
        retry_after_s: float = 1.0,
        quorum_size: Optional[int] = None,
        region: Optional[str] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.server_id = server_id
        self._sessions: Dict[str, Session] = {}
        self._observers: List[Callable[[SessionAnnouncement], None]] = []
        self.client = BrokerClient(host, client_id=server_id)
        self.client.connect(broker, link_type=link_type)
        self.client.subscribe(SERVER_TOPIC, self._on_request_event)
        self.requests_handled = 0
        self.swallowed_errors = 0
        # --- admission control (overload protection, DESIGN.md §9) -----
        # Bound on modeled in-flight work: when the host CPU's run queue
        # is deeper than this, new joins are answered with SessionBusy
        # (retry-after pacing) instead of queuing without limit.
        if max_inflight_requests is not None and max_inflight_requests < 1:
            raise ValueError("max_inflight_requests must be >= 1")
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be > 0")
        self.max_inflight_requests = max_inflight_requests
        self.retry_after_s = retry_after_s
        self.joins_shed = 0
        # --- geo placement (PR 10, inert when unset) -------------------
        # ``region`` pins a replica to its regional broker cluster for
        # observability; ``quorum_size`` is the split-brain guard: a
        # standby that can see fewer than this many live replicas
        # (itself included) refuses promotion — the minority side of a
        # regional partition keeps following instead of forking the
        # control plane, and the majority side's election proceeds.
        if quorum_size is not None and quorum_size < 1:
            raise ValueError("quorum_size must be >= 1")
        self.quorum_size = quorum_size
        self.region = region
        self.promotions_refused = 0
        # --- replication state (inert when standalone) -----------------
        self.replica_heartbeat_interval_s = replica_heartbeat_interval_s
        self.replica_miss_limit = replica_miss_limit
        self.inflight_replay_window_s = inflight_replay_window_s
        self._replicated = replica_heartbeat_interval_s is not None
        self.is_leader = not standby
        self._leader_id: Optional[str] = None if standby else server_id
        self._journal_version = 0
        self._applied: "OrderedDict[str, str]" = OrderedDict()
        self._current_request_key: Optional[str] = None
        self._replica_last_seen: Dict[str, float] = {}
        self._replica_set_epoch = 0
        self._election_epoch = -1
        self._elected: Optional[str] = None
        self._leader_last_seen = self.sim.now
        self._started_at = self.sim.now
        self._caught_up = not standby
        self._pending_ops: List[SessionOp] = []
        self._inflight: Deque[Tuple[float, Optional[str], str]] = deque()
        self._hb_timer = None
        self._crashed = False
        self.duplicates_suppressed = 0
        self.ops_journaled = 0
        self.ops_applied = 0
        self.promotions = 0
        self.demotions = 0
        self.inflight_replayed = 0
        self.snapshots_served = 0
        self.snapshots_installed = 0
        self.replica_heartbeats_received = 0
        if self._replicated:
            self.client.subscribe(JOURNAL_TOPIC, self._on_journal_event)
            self.client.subscribe(REPLICA_TOPIC, self._on_replica_event)
            self.client.subscribe(
                replica_topic(server_id), self._on_replica_event
            )
            if standby:
                self._publish_xml(
                    REPLICA_TOPIC, SnapshotRequest(server_id=server_id)
                )
            self._hb_timer = self.sim.schedule(
                replica_heartbeat_interval_s, self._replica_tick
            )
        # Observability: request transit time over the broker plane
        # (publish at the requester -> handling here), one leg of every
        # gateway's join latency; control_outage_s records, at each
        # promotion, how long the control plane had no live leader.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.signaling_latency = self.metrics.histogram(
            "signaling_latency_s", SIGNALING_BUCKETS_S
        )
        self.control_outage = self.metrics.histogram(
            "control_outage_s", SIGNALING_BUCKETS_S
        )
        self.metrics.expose("requests_handled", lambda: self.requests_handled)
        self.metrics.expose("sessions", lambda: len(self._sessions))
        self.metrics.expose(
            "active_sessions", lambda: len(self.active_sessions())
        )
        self.metrics.expose("is_leader", lambda: int(self.is_leader))
        self.metrics.expose("journal_version", lambda: self._journal_version)
        self.metrics.expose(
            "replicas_live", lambda: 1 + len(self._replica_last_seen)
        )
        for counter_name in (
            "duplicates_suppressed",
            "ops_journaled",
            "ops_applied",
            "promotions",
            "demotions",
            "inflight_replayed",
            "snapshots_served",
            "snapshots_installed",
            "replica_heartbeats_received",
            "swallowed_errors",
            "joins_shed",
            "promotions_refused",
        ):
            self.metrics.expose(
                counter_name, lambda name=counter_name: getattr(self, name)
            )

    # ----------------------------------------------------------- queries

    @property
    def leader_id(self) -> Optional[str]:
        return self._leader_id

    @property
    def journal_version(self) -> int:
        return self._journal_version

    @property
    def caught_up(self) -> bool:
        return self._caught_up

    def session(self, session_id: str) -> Optional[Session]:
        return self._sessions.get(session_id)

    def sessions(self) -> List[Session]:
        return [self._sessions[sid] for sid in sorted(self._sessions)]

    def active_sessions(self) -> List[Session]:
        return [
            session
            for session in self.sessions()
            if session.state == SessionState.ACTIVE
        ]

    def add_observer(self, observer: Callable[[SessionAnnouncement], None]) -> None:
        """In-process observer of every announcement (used by the MMCS
        assembly for logging/metrics)."""
        self._observers.append(observer)

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Graceful shutdown: stop ticking, say goodbye to the broker."""
        self._crashed = True
        if self._hb_timer is not None:
            self._hb_timer.cancel()
            self._hb_timer = None
        self.client.disconnect()

    def crash(self) -> None:
        """Silent process death (chaos injection): no Disconnect, no
        goodbye heartbeat — standbys must detect the silence."""
        self._crashed = True
        self.is_leader = False
        if self._hb_timer is not None:
            self._hb_timer.cancel()
            self._hb_timer = None
        self.client.kill()

    # --------------------------------------------------- request handling

    def _on_request_event(self, event: NBEvent) -> None:
        payload = event.payload
        if not isinstance(payload, dict) or "xml" not in payload:
            return
        try:
            message = xml_codec.decode(payload["xml"])
        except Exception as exc:
            self.swallowed_errors += 1
            _log.debug(
                "%s dropped undecodable request (%s)",
                self.server_id, type(exc).__name__,
            )
            return
        reply_to = payload.get("reply_to")
        key = self._request_key(reply_to, message)
        cached = self._applied.get(key)
        if cached is not None:
            # Retry of an already-applied mutation: answer, don't re-apply.
            self.duplicates_suppressed += 1
            if reply_to and cached:
                self._publish_text(reply_to, cached)
            return
        if not self.is_leader:
            # Standby: buffer for replay-on-promotion; the leader answers.
            self._inflight.append((self.sim.now, reply_to, payload["xml"]))
            while len(self._inflight) > INFLIGHT_BUFFER_MAX:
                self._inflight.popleft()
            return
        if (
            self.max_inflight_requests is not None
            and isinstance(message, JoinSession)
            and self.host.cpu.queue_depth > self.max_inflight_requests
        ):
            # Admission control: shed the join with retry-after pacing
            # instead of queuing without limit.  Deliberately NOT
            # recorded in the dedup table — the client's paced retry
            # (same request_id) must be processed fresh.
            self.joins_shed += 1
            if reply_to:
                self._publish_xml(
                    reply_to,
                    SessionBusy(
                        session_id=message.session_id,
                        participant=message.participant,
                        retry_after_s=self.retry_after_s,
                        request_id=message.request_id,
                    ),
                )
            return
        self.signaling_latency.observe(self.sim.now - event.published_at)
        self._handle_and_reply(message, reply_to, key)

    def _handle_and_reply(
        self, message: Any, reply_to: Optional[str], key: str
    ) -> None:
        """Apply one request from the broker path and answer it.  A
        request that mutated state was rendered by ``_journal`` into
        ``_applied[key]``; the reply is that text (the one a retry would
        be answered with), not a second encoding of the same object."""
        response = self._dispatch(message, key)
        if response is not None and reply_to:
            self._publish_text(
                reply_to, self._applied.get(key) or xml_codec.encode(response)
            )

    def handle_message(self, message: Any, reply_to: Optional[str] = None):
        """Process one XGSP request; returns the response message.

        Public so the Web Server (or tests) can drive the server
        in-process; the broker path funnels into the same dispatch.
        ``reply_to`` keys the duplicate-suppression table (``None`` for
        in-process calls).
        """
        return self._dispatch(message, self._request_key(reply_to, message))

    def _dispatch(self, message: Any, key: str):
        self.requests_handled += 1
        self._current_request_key = key
        try:
            if isinstance(message, CreateSession):
                return self._handle_create(message)
            if isinstance(message, TerminateSession):
                return self._handle_terminate(message)
            if isinstance(message, JoinSession):
                return self._handle_join(message)
            if isinstance(message, LeaveSession):
                return self._handle_leave(message)
            if isinstance(message, InviteUser):
                return self._handle_invite(message)
            if isinstance(message, FloorControl):
                return self._handle_floor(message)
            if isinstance(message, MuteMember):
                return self._handle_mute(message)
            if isinstance(message, ListSessions):
                return self._handle_list(message)
            return None
        finally:
            self._current_request_key = None

    @staticmethod
    def _request_key(reply_to: Optional[str], message: Any) -> str:
        return f"{reply_to or 'local'}#{getattr(message, 'request_id', -1)}"

    # ------------------------------------------------------ establishment

    def _handle_create(self, message: CreateSession) -> SessionCreated:
        session = Session(
            session_id=allocate_session_id(),
            title=message.title,
            creator=message.creator,
            media_kinds=list(message.media_kinds),
            mode=message.mode,
            community=message.community,
        )
        self._sessions[session.session_id] = session
        self._announce(
            session,
            SessionAnnouncement(
                session_id=session.session_id,
                event="created",
                participant=message.creator,
                detail=message.title,
            ),
            include_control=False,  # nobody subscribed yet
        )
        response = SessionCreated(
            request_id=message.request_id,
            session_id=session.session_id,
            title=session.title,
            media=session.media_list(),
            control_topic=session.control_topic,
        )
        self._journal("create", session.session_id, session.to_snapshot(),
                      response)
        return response

    def _handle_terminate(self, message: TerminateSession) -> SessionTerminated:
        session = self._sessions.get(message.session_id)
        if session is None:
            return SessionTerminated(
                request_id=message.request_id,
                session_id=message.session_id,
                reason="unknown-session",
            )
        session.terminate()
        self._announce(
            session,
            SessionAnnouncement(
                session_id=session.session_id,
                event="terminated",
                participant=message.requester,
            ),
        )
        response = SessionTerminated(
            request_id=message.request_id,
            session_id=session.session_id,
            reason="ok",
        )
        self._journal("terminate", session.session_id, {}, response)
        return response

    # -------------------------------------------------------- membership

    def _handle_join(self, message: JoinSession):
        session = self._sessions.get(message.session_id)
        if session is None or session.state != SessionState.ACTIVE:
            return JoinRejected(
                request_id=message.request_id,
                session_id=message.session_id,
                participant=message.participant,
                reason="no-such-active-session",
            )
        member = Member(
            participant=message.participant,
            community=message.community,
            terminal=message.terminal,
            joined_at=self.sim.now,
            media_kinds=list(message.media_kinds),
        )
        session.join(member)
        self._announce(
            session,
            SessionAnnouncement(
                session_id=session.session_id,
                event="joined",
                participant=message.participant,
                detail=message.community,
            ),
        )
        response = JoinAccepted(
            request_id=message.request_id,
            session_id=session.session_id,
            participant=message.participant,
            media=session.media_for(message.media_kinds),
            control_topic=session.control_topic,
        )
        self._journal(
            "join",
            session.session_id,
            {
                "participant": member.participant,
                "community": member.community,
                "terminal": member.terminal,
                "joined_at": member.joined_at,
                "media_kinds": list(member.media_kinds),
                "muted": member.muted,
            },
            response,
        )
        return response

    def _handle_leave(self, message: LeaveSession) -> Optional[SessionAnnouncement]:
        session = self._sessions.get(message.session_id)
        if session is None:
            return None
        member = session.leave(message.participant)
        if member is not None:
            self._announce(
                session,
                SessionAnnouncement(
                    session_id=session.session_id,
                    event="left",
                    participant=message.participant,
                ),
            )
        response = SessionAnnouncement(
            request_id=message.request_id,
            session_id=message.session_id,
            event="left",
            participant=message.participant,
        )
        if member is not None:
            self._journal(
                "leave",
                session.session_id,
                {"participant": message.participant},
                response,
            )
        return response

    def _handle_invite(self, message: InviteUser) -> SessionAnnouncement:
        session = self._sessions.get(message.session_id)
        acknowledgement = SessionAnnouncement(
            request_id=message.request_id,
            session_id=message.session_id,
            event="invited",
            participant=message.invitee,
            detail="unknown-session" if session is None else "delivered",
        )
        if session is not None:
            invitation = SessionAnnouncement(
                session_id=session.session_id,
                event="invitation",
                participant=message.invitee,
                detail=f"from {message.inviter}: {message.note}",
            )
            self._publish_xml(client_topic(message.invitee), invitation)
        return acknowledgement

    # ------------------------------------------------------------ control

    def _handle_floor(self, message: FloorControl) -> FloorControl:
        session = self._sessions.get(message.session_id)
        if session is None:
            return FloorControl(
                request_id=message.request_id,
                session_id=message.session_id,
                participant=message.participant,
                action=FloorAction.DENY,
            )
        try:
            if message.action == FloorAction.REQUEST:
                granted = session.request_floor(message.participant)
            elif message.action == FloorAction.RELEASE:
                granted = session.release_floor(message.participant)
            else:
                granted = False
        except XgspError:
            granted = False
        action = FloorAction.GRANT if granted else FloorAction.DENY
        if granted:
            self._announce(
                session,
                SessionAnnouncement(
                    session_id=session.session_id,
                    event="floor",
                    participant=message.participant,
                    detail=message.action,
                ),
            )
        response = FloorControl(
            request_id=message.request_id,
            session_id=message.session_id,
            participant=message.participant,
            action=action,
        )
        if granted:
            self._journal(
                "floor",
                session.session_id,
                {"floor_holder": session.floor_holder},
                response,
            )
        return response

    def _handle_mute(self, message: MuteMember) -> SessionAnnouncement:
        session = self._sessions.get(message.session_id)
        detail = "ok"
        if session is None:
            detail = "unknown-session"
        elif message.requester not in (session.creator, message.target):
            detail = "not-authorized"
        else:
            try:
                session.set_muted(message.target, message.muted)
            except XgspError:
                detail = "unknown-member"
        if session is not None and detail == "ok":
            self._announce(
                session,
                SessionAnnouncement(
                    session_id=session.session_id,
                    event="mute" if message.muted else "unmute",
                    participant=message.target,
                ),
            )
        response = SessionAnnouncement(
            request_id=message.request_id,
            session_id=message.session_id,
            event="mute-result",
            participant=message.target,
            detail=detail,
        )
        if session is not None and detail == "ok":
            self._journal(
                "mute",
                session.session_id,
                {"target": message.target, "muted": message.muted},
                response,
            )
        return response

    def _handle_list(self, message: ListSessions) -> SessionList:
        sessions = [
            session.describe()
            for session in self.active_sessions()
            if not message.community or session.community == message.community
        ]
        return SessionList(request_id=message.request_id, sessions=sessions)

    # --------------------------------------------------------- journaling

    def _journal(
        self, kind: str, session_id: str, data: Dict, response: Any
    ) -> None:
        """Record one applied mutation: bump the version, remember the
        answer for duplicate suppression, and (when replicated) publish
        the op so standbys stay hot."""
        self._journal_version += 1
        self.ops_journaled += 1
        response_xml = xml_codec.encode(response) if response is not None else ""
        key = self._current_request_key or ""
        if key:
            self._record_applied(key, response_xml)
        if not self._replicated:
            return
        op = SessionOp(
            version=self._journal_version,
            kind=kind,
            session_id=session_id,
            data=data,
            request_key=key,
            response_xml=response_xml,
            leader=self.server_id,
        )
        self._publish_xml(JOURNAL_TOPIC, op)

    def _record_applied(self, key: str, response_xml: str) -> None:
        self._applied[key] = response_xml
        self._applied.move_to_end(key)
        while len(self._applied) > APPLIED_CACHE_MAX:
            self._applied.popitem(last=False)

    def _on_journal_event(self, event: NBEvent) -> None:
        payload = event.payload
        if not isinstance(payload, dict) or "xml" not in payload:
            return
        try:
            op = xml_codec.decode(payload["xml"])
        except Exception as exc:
            self.swallowed_errors += 1
            _log.debug(
                "%s dropped undecodable journal op (%s)",
                self.server_id, type(exc).__name__,
            )
            return
        if not isinstance(op, SessionOp) or op.leader == self.server_id:
            return
        # Journal traffic is authoritative leader traffic.
        self._replica_seen(op.leader)
        self._leader_last_seen = self.sim.now
        if self.is_leader:
            # Split-brain heal: the deterministic tie-break is the
            # minimum id; the larger claimant steps down.
            if op.leader < self.server_id:
                self._demote(op.leader)
            else:
                return
        self._leader_id = op.leader
        if not self._caught_up:
            self._pending_ops.append(op)
            return
        if op.version > self._journal_version + 1:
            # Missed an op (lossy interval, late subscription): fall back
            # to a full snapshot rather than apply with a hole.
            self._caught_up = False
            self._pending_ops.append(op)
            self._publish_xml(
                REPLICA_TOPIC, SnapshotRequest(server_id=self.server_id)
            )
            return
        self._apply_op(op)

    def _apply_op(self, op: SessionOp) -> None:
        if op.version <= self._journal_version:
            return  # duplicate / already snapshot-covered
        session = self._sessions.get(op.session_id)
        if op.kind == "create":
            self._sessions[op.session_id] = Session.from_snapshot(op.data)
        elif session is None:
            pass  # mutation for a session we never learned; version advances
        elif op.kind == "join":
            session.roster.add(Member(**op.data))
        elif op.kind == "leave":
            session.leave(op.data["participant"])
        elif op.kind == "terminate":
            session.terminate()
        elif op.kind == "floor":
            session.floor_holder = op.data["floor_holder"]
        elif op.kind == "mute":
            member = session.roster.get(op.data["target"])
            if member is not None:
                member.muted = op.data["muted"]
        self._journal_version = op.version
        self.ops_applied += 1
        if op.request_key:
            self._record_applied(op.request_key, op.response_xml)

    # ----------------------------------------------------- replica plane

    def _on_replica_event(self, event: NBEvent) -> None:
        payload = event.payload
        if not isinstance(payload, dict) or "xml" not in payload:
            return
        try:
            message = xml_codec.decode(payload["xml"])
        except Exception as exc:
            self.swallowed_errors += 1
            _log.debug(
                "%s dropped undecodable replica message (%s)",
                self.server_id, type(exc).__name__,
            )
            return
        if isinstance(message, ReplicaHeartbeat):
            self._on_replica_heartbeat(message)
        elif isinstance(message, SnapshotRequest):
            self._on_snapshot_request(message)
        elif isinstance(message, SnapshotResponse):
            self._on_snapshot_response(message)

    def _replica_seen(self, server_id: str) -> None:
        if server_id == self.server_id:
            return
        if server_id not in self._replica_last_seen:
            self._replica_set_epoch += 1
        self._replica_last_seen[server_id] = self.sim.now

    def _on_replica_heartbeat(self, beat: ReplicaHeartbeat) -> None:
        if beat.server_id == self.server_id:
            return  # own echo off the broker fan-out
        self.replica_heartbeats_received += 1
        self._replica_seen(beat.server_id)
        if beat.leader == beat.server_id:
            # The sender claims leadership.
            if self.is_leader:
                if beat.server_id < self.server_id:
                    self._demote(beat.server_id)
                # else: we outrank them; they step down on our next beat.
            else:
                self._leader_id = beat.server_id
                self._leader_last_seen = self.sim.now
        elif beat.server_id == self._leader_id:
            self._leader_last_seen = self.sim.now

    def _demote(self, new_leader: str) -> None:
        self.is_leader = False
        self._leader_id = new_leader
        self._leader_last_seen = self.sim.now
        self.demotions += 1
        _log.debug("%s demoted in favour of %s", self.server_id, new_leader)

    def _replica_tick(self) -> None:
        self._hb_timer = None
        if self._crashed:
            return
        interval = self.replica_heartbeat_interval_s or 1.0
        self._publish_xml(
            REPLICA_TOPIC,
            ReplicaHeartbeat(
                server_id=self.server_id,
                leader=self._leader_id or "",
                version=self._journal_version,
                epoch=self._replica_set_epoch,
            ),
        )
        # Evict replicas silent for miss_limit intervals (same rule as
        # the broker mesh's peer heartbeats).
        deadline = self.sim.now - interval * self.replica_miss_limit
        for server_id, last_seen in list(self._replica_last_seen.items()):
            if last_seen < deadline:
                del self._replica_last_seen[server_id]
                self._replica_set_epoch += 1
                if server_id == self._leader_id:
                    self._leader_id = None
        if self._leader_id is None and not self.is_leader:
            # Give a fresh standby one detection window to discover an
            # incumbent before electing over the live set.
            grace = interval * (self.replica_miss_limit + 1)
            if self._replica_last_seen or self.sim.now - self._started_at > grace:
                elected = self._elect()
                if elected == self.server_id:
                    if (
                        self.quorum_size is None
                        or 1 + len(self._replica_last_seen) >= self.quorum_size
                    ):
                        self._promote()
                    else:
                        # Minority side of a partition: refuse the crown
                        # rather than fork the control plane.  Re-checked
                        # every tick, so promotion follows the heal (or a
                        # quorum of replicas rejoining) automatically.
                        self.promotions_refused += 1
                        _log.debug(
                            "%s refuses promotion: %d live replicas < "
                            "quorum %d",
                            self.server_id,
                            1 + len(self._replica_last_seen),
                            self.quorum_size,
                        )
                else:
                    self._leader_id = elected
                    self._leader_last_seen = self.sim.now
        if not self._caught_up and self._leader_id not in (None, self.server_id):
            # Late joiner still waiting for state: nudge the leader again
            # (the first request may have raced its subscription).
            self._publish_xml(
                REPLICA_TOPIC, SnapshotRequest(server_id=self.server_id)
            )
        self._hb_timer = self.sim.schedule(interval, self._replica_tick)

    def _elect(self) -> str:
        """Deterministic leader election: the minimum live server id,
        cached per replica-set epoch (the sequencer-election pattern)."""
        if self._election_epoch != self._replica_set_epoch:
            self._elected = min([self.server_id, *self._replica_last_seen])
            self._election_epoch = self._replica_set_epoch
        return self._elected or self.server_id

    def _promote(self) -> None:
        """A standby takes over: record the outage, re-announce every
        active session, and replay buffered in-flight requests."""
        outage = self.sim.now - self._leader_last_seen
        self.control_outage.observe(outage)
        self.is_leader = True
        self._leader_id = self.server_id
        self.promotions += 1
        self._caught_up = True  # leading now; nobody left to catch up from
        self._pending_ops.clear()
        _log.debug(
            "%s promoted to leader after %.3fs outage (journal v%d)",
            self.server_id, outage, self._journal_version,
        )
        for session in self.active_sessions():
            self._announce(
                session,
                SessionAnnouncement(
                    session_id=session.session_id,
                    event="leader-changed",
                    participant=self.server_id,
                    detail=f"journal-v{self._journal_version}",
                ),
            )
        now = self.sim.now
        inflight, self._inflight = list(self._inflight), deque()
        for at, reply_to, xml in inflight:
            if now - at > self.inflight_replay_window_s:
                continue
            try:
                message = xml_codec.decode(xml)
            except Exception as exc:
                self.swallowed_errors += 1
                _log.debug(
                    "%s dropped undecodable in-flight request during "
                    "promotion replay: %s: %s",
                    self.server_id, type(exc).__name__, exc,
                )
                continue
            key = self._request_key(reply_to, message)
            cached = self._applied.get(key)
            if cached is not None:
                # The dead leader applied and journaled it; just answer.
                self.duplicates_suppressed += 1
                if reply_to and cached:
                    self._publish_text(reply_to, cached)
                continue
            self.inflight_replayed += 1
            self._handle_and_reply(message, reply_to, key)

    # ---------------------------------------------------------- snapshots

    def _on_snapshot_request(self, request: SnapshotRequest) -> None:
        if request.server_id == self.server_id or not self.is_leader:
            return
        self._replica_seen(request.server_id)
        self.snapshots_served += 1
        self._publish_xml(
            replica_topic(request.server_id),
            SnapshotResponse(
                version=self._journal_version,
                leader=self.server_id,
                sessions=[
                    session.to_snapshot() for session in self.sessions()
                ],
                applied=[
                    {"key": key, "response_xml": response_xml}
                    for key, response_xml in self._applied.items()
                ],
            ),
        )

    def _on_snapshot_response(self, response: SnapshotResponse) -> None:
        if self._caught_up or self.is_leader:
            return
        self._replica_seen(response.leader)
        self._sessions = {
            data["session_id"]: Session.from_snapshot(data)
            for data in response.sessions
        }
        self._applied = OrderedDict(
            (entry["key"], entry["response_xml"])
            for entry in response.applied
        )
        self._journal_version = response.version
        self._leader_id = response.leader
        self._leader_last_seen = self.sim.now
        self._caught_up = True
        self.snapshots_installed += 1
        pending, self._pending_ops = sorted(
            self._pending_ops, key=lambda op: op.version
        ), []
        for op in pending:
            if op.version > self._journal_version + 1:
                # Hole inside the buffered tail: ask again — the next
                # snapshot's version will cover the missing op.
                self._caught_up = False
                self._pending_ops = [
                    later for later in pending
                    if later.version > self._journal_version
                ]
                self._publish_xml(
                    REPLICA_TOPIC, SnapshotRequest(server_id=self.server_id)
                )
                return
            self._apply_op(op)

    # ------------------------------------------------------ announcements

    def _announce(
        self,
        session: Session,
        announcement: SessionAnnouncement,
        include_control: bool = True,
    ) -> None:
        for observer in self._observers:
            observer(announcement)
        text = xml_codec.encode(announcement)
        self._publish_text(ANNOUNCEMENTS_TOPIC, text)
        if include_control:
            self._publish_text(session.control_topic, text)

    def _publish_xml(self, topic: str, message: Any) -> None:
        self._publish_text(topic, xml_codec.encode(message))

    def _publish_text(self, topic: str, text: str) -> None:
        # Replication traffic (journal, replica plane) rides the reliable
        # delivery path — a dropped SessionOp would hole a standby's copy
        # (gap detection would then force a full snapshot transfer).
        reliable = topic == JOURNAL_TOPIC or topic.startswith("/xgsp/control/")
        self.client.publish(
            topic,
            {"xml": text},
            len(text) + WRAPPER_BYTES,
            reliable=reliable,  # TCP server link already covers the rest
        )
