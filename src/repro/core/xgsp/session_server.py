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

Every session mutation has one apply path: a request handler validates
the request and names its effect (create ships the session snapshot,
join the constructed member), :meth:`_journal` makes that a versioned
:class:`SessionOp`, and :meth:`_apply` is the only code that changes
session state — on the leader that journals the op and on every standby
that receives it.  Duplicate
suppression on ``(reply_to, request_id)`` makes retried requests safe: a
retried ``JoinSession`` is answered from the recorded response, never
double-applied.

Survivability (DESIGN.md §5d): with ``replica_heartbeat_interval_s`` set
the server builds a :class:`~repro.core.xgsp.replication.Replication`
plane — heartbeats, election, journal receive, snapshot catch-up and
promotion.  Without it the server is standalone, always leading, and
holds no replication state.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from typing import Any, Dict, List, Optional

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
    SessionAnnouncement,
    SessionBusy,
    SessionCreated,
    SessionList,
    SessionOp,
    SessionTerminated,
    TerminateSession,
    new_request_id,
)
from repro.core.xgsp.replication import (
    CLOSED,
    JOURNAL_TOPIC,
    LEADING,
    Replication,
)
from repro.core.xgsp.roster import Member
from repro.core.xgsp.session import (
    Session,
    SessionState,
    allocate_session_id,
    control_topic,
)
from repro.obs.metrics import SIGNALING_BUCKETS_S, MetricsRegistry
from repro.simnet.node import Host

SERVER_TOPIC = "/xgsp/signaling/server"
ANNOUNCEMENTS_TOPIC = "/xgsp/announcements"

_log = logging.getLogger(__name__)


def client_topic(participant: str) -> str:
    """The reply topic of one signaling participant."""
    return f"/xgsp/signaling/client/{participant.replace('/', '-')}"


#: Wire overhead of the signaling event wrapper.
WRAPPER_BYTES = 32

#: Bound on the replicated duplicate-suppression table.
APPLIED_CACHE_MAX = 4096

#: Every counter a server keeps, in registration order (the replication
#: plane bumps its own on the server).
COUNTERS = (
    "requests_handled",
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
)


class XgspSessionServer:
    """Session management + signaling endpoint on the broker network.

    Standalone by default (one server, always leader).  With
    ``replica_heartbeat_interval_s`` set the server joins the replica
    group: ``standby=False`` starts leading, ``standby=True`` starts
    following (journal apply + snapshot catch-up) and promotes on leader
    death; ``quorum_size`` refuses promotion below that many live
    replicas.  ``standby`` and ``quorum_size`` without replication raise
    ``ValueError``: nothing would ever promote the standby, and the
    quorum would guard no election.
    """

    def __init__(
        self,
        host: Host,
        broker: Broker,
        server_id: str = "xgsp-session-server",
        link_type: LinkType = LinkType.TCP,
        replica_heartbeat_interval_s: Optional[float] = None,
        replica_miss_limit: int = 3,
        standby: bool = False,
        max_inflight_requests: Optional[int] = None,
        retry_after_s: float = 1.0,
        quorum_size: Optional[int] = None,
    ):
        if max_inflight_requests is not None and max_inflight_requests < 1:
            raise ValueError("max_inflight_requests must be >= 1")
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be > 0")
        if quorum_size is not None and quorum_size < 1:
            raise ValueError("quorum_size must be >= 1")
        if replica_heartbeat_interval_s is None and (
            standby or quorum_size is not None
        ):
            raise ValueError(
                "standby and quorum_size need replica_heartbeat_interval_s"
            )
        self.host = host
        self.sim = host.sim
        self.server_id = server_id
        # Admission control (overload protection, DESIGN.md §9): when the
        # host CPU's run queue is deeper than this, new joins are
        # answered with SessionBusy (retry-after pacing) instead of
        # queuing without limit.
        self.max_inflight_requests = max_inflight_requests
        self.retry_after_s = retry_after_s
        for name in COUNTERS:
            setattr(self, name, 0)
        self._sessions: Dict[str, Session] = {}
        self._journal_version = 0
        self._applied: "OrderedDict[str, str]" = OrderedDict()
        self._current_request_key: Optional[str] = None
        self.client = BrokerClient(host, client_id=server_id)
        self.client.connect(broker, link_type=link_type)
        self.client.subscribe(SERVER_TOPIC, self._on_request_event)
        self.replication: Optional[Replication] = None
        if replica_heartbeat_interval_s is not None:
            self.replication = Replication(
                self, replica_heartbeat_interval_s, replica_miss_limit,
                standby, quorum_size,
            )
        # Observability: request transit time over the broker plane
        # (publish at the requester -> handling here), one leg of every
        # gateway's join latency; control_outage_s records, at each
        # promotion, how long the control plane had no live leader.
        self.metrics = MetricsRegistry()
        self.signaling_latency = self.metrics.histogram(
            "signaling_latency_s", SIGNALING_BUCKETS_S
        )
        self.control_outage = self.metrics.histogram(
            "control_outage_s", SIGNALING_BUCKETS_S
        )
        gauges = {
            "sessions": lambda: len(self._sessions),
            "active_sessions": lambda: len(self.active_sessions()),
            "is_leader": lambda: int(self.is_leader),
            "journal_version": lambda: self._journal_version,
            "replicas_live": lambda: 1 + (
                len(self.replication.last_seen) if self.replication else 0
            ),
        }
        # requests_handled registers ahead of the gauges, the rest after.
        for name in (COUNTERS[0], *gauges, *COUNTERS[1:]):
            self.metrics.expose(
                name, gauges.get(name) or (lambda name=name: getattr(self, name))
            )

    # ----------------------------------------------------------- queries

    @property
    def is_leader(self) -> bool:
        return self.replication is None or self.replication.role == LEADING

    @property
    def leader_id(self) -> Optional[str]:
        replication = self.replication
        return self.server_id if replication is None else replication.leader

    @property
    def journal_version(self) -> int:
        return self._journal_version

    @property
    def caught_up(self) -> bool:
        return self.replication is None or self.replication.caught_up

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

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Graceful shutdown: stop ticking, say goodbye to the broker."""
        if self.replication is not None:
            self.replication.become(CLOSED)
        self.client.disconnect()

    def crash(self) -> None:
        """Silent process death (chaos injection): no Disconnect, no
        goodbye heartbeat — standbys must detect the silence."""
        if self.replication is not None:
            self.replication.become(CLOSED)
        self.client.kill()

    # --------------------------------------------------- request handling

    def _decode(self, payload: Any, what: str) -> Any:
        """The XGSP message an inbound event payload carries, or None
        (not a signaling payload, or undecodable: counted and logged)."""
        if not isinstance(payload, dict) or "xml" not in payload:
            return None
        try:
            return xml_codec.decode(payload["xml"])
        except Exception as exc:
            self.swallowed_errors += 1
            _log.debug(
                "%s dropped undecodable %s (%s)",
                self.server_id, what, type(exc).__name__,
            )
            return None

    def _answer_duplicate(self, key: str, reply_to: Optional[str]) -> bool:
        """Answer a retry of an already-applied mutation from the dedup
        table instead of re-applying it; False when ``key`` is new."""
        cached = self._applied.get(key)
        if cached is None:
            return False
        self.duplicates_suppressed += 1
        if reply_to and cached:
            self._publish_text(reply_to, cached)
        return True

    def _on_request_event(self, event: NBEvent) -> None:
        payload = event.payload
        message = self._decode(payload, "request")
        if message is None:
            return
        reply_to = payload.get("reply_to")
        key = self._request_key(reply_to, message)
        if self._answer_duplicate(key, reply_to):
            return
        replication = self.replication
        if replication is not None and replication.role != LEADING:
            # Standby: buffer for replay-on-promotion; the leader answers.
            replication.buffer(payload)
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
        return self._journal(
            "create",
            session.to_snapshot(),
            SessionCreated(
                request_id=message.request_id,
                session_id=session.session_id,
                title=session.title,
                media=session.media_list(),
                control_topic=session.control_topic,
            ),
            SessionAnnouncement(
                session_id=session.session_id,
                event="created",
                participant=message.creator,
                detail=message.title,
            ),
            include_control=False,  # nobody subscribed yet
        )

    def _handle_terminate(self, message: TerminateSession) -> SessionTerminated:
        if message.session_id not in self._sessions:
            return SessionTerminated(
                request_id=message.request_id,
                session_id=message.session_id,
                reason="unknown-session",
            )
        return self._journal(
            "terminate",
            {},
            SessionTerminated(
                request_id=message.request_id,
                session_id=message.session_id,
                reason="ok",
            ),
            SessionAnnouncement(
                session_id=message.session_id,
                event="terminated",
                participant=message.requester,
            ),
        )

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
        return self._journal(
            "join",
            {
                "participant": message.participant,
                "community": message.community,
                "terminal": message.terminal,
                "joined_at": self.sim.now,
                "media_kinds": list(message.media_kinds),
                "muted": False,
            },
            JoinAccepted(
                request_id=message.request_id,
                session_id=session.session_id,
                participant=message.participant,
                media=session.media_for(message.media_kinds),
                control_topic=session.control_topic,
            ),
            SessionAnnouncement(
                session_id=session.session_id,
                event="joined",
                participant=message.participant,
                detail=message.community,
            ),
        )

    def _handle_leave(self, message: LeaveSession) -> Optional[SessionAnnouncement]:
        session = self._sessions.get(message.session_id)
        if session is None:
            return None
        response = SessionAnnouncement(
            request_id=message.request_id,
            session_id=message.session_id,
            event="left",
            participant=message.participant,
        )
        if message.participant not in session.roster:
            return response
        return self._journal(
            "leave",
            {"participant": message.participant},
            response,
            SessionAnnouncement(
                session_id=session.session_id,
                event="left",
                participant=message.participant,
            ),
        )

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
        participant = message.participant
        requested = message.action == FloorAction.REQUEST
        if session is None:
            granted = False
        elif requested:
            granted = participant in session.roster and (
                session.floor_holder in (None, participant)
            )
        else:
            granted = (
                message.action == FloorAction.RELEASE
                and session.floor_holder == participant
            )
        response = FloorControl(
            request_id=message.request_id,
            session_id=message.session_id,
            participant=participant,
            action=FloorAction.GRANT if granted else FloorAction.DENY,
        )
        if not granted:
            return response
        return self._journal(
            "floor",
            {"floor_holder": participant if requested else None},
            response,
            SessionAnnouncement(
                session_id=session.session_id,
                event="floor",
                participant=participant,
                detail=message.action,
            ),
        )

    def _handle_mute(self, message: MuteMember) -> SessionAnnouncement:
        session = self._sessions.get(message.session_id)
        detail = "ok"
        if session is None:
            detail = "unknown-session"
        elif message.requester not in (session.creator, message.target):
            detail = "not-authorized"
        elif message.target not in session.roster:
            detail = "unknown-member"
        response = SessionAnnouncement(
            request_id=message.request_id,
            session_id=message.session_id,
            event="mute-result",
            participant=message.target,
            detail=detail,
        )
        if detail != "ok":
            return response
        return self._journal(
            "mute",
            {"target": message.target, "muted": message.muted},
            response,
            SessionAnnouncement(
                session_id=session.session_id,
                event="mute" if message.muted else "unmute",
                participant=message.target,
            ),
        )

    def _handle_list(self, message: ListSessions) -> SessionList:
        sessions = [
            session.describe()
            for session in self.active_sessions()
            if not message.community or session.community == message.community
        ]
        return SessionList(request_id=message.request_id, sessions=sessions)

    # ------------------------------------------------- the one apply path

    def _journal(
        self,
        kind: str,
        data: Dict,
        response: Any,
        announcement: SessionAnnouncement,
        include_control: bool = True,
    ) -> Any:
        """Leader side of one mutation: apply it as an op (its encoded
        answer becomes the dedup entry and the reply), announce it, and
        publish the op to the standbys when replicated."""
        replicated = self.replication is not None
        op = SessionOp(
            version=self._journal_version + 1,
            kind=kind,
            session_id=announcement.session_id,
            data=data,
            request_key=self._current_request_key or "",
            response_xml=xml_codec.encode(response),
            leader=self.server_id,
            # Only a journaled op goes on the wire, so only it draws a
            # request id: every draw shifts the later ids, which are
            # wire bytes too.
            request_id=new_request_id() if replicated else 0,
        )
        self._apply(op)
        self.ops_journaled += 1
        self._announce(announcement, include_control)
        if replicated:
            self._publish_xml(JOURNAL_TOPIC, op)
        return response

    def _apply(self, op: SessionOp) -> None:
        """The only code that changes session state, on the leader and on
        every standby: patch the session, advance the journal version,
        and remember the answer for duplicate suppression."""
        session = self._sessions.get(op.session_id)
        kind, data = op.kind, op.data
        if kind == "create":
            self._sessions[op.session_id] = Session.from_snapshot(data)
        elif session is None:
            pass  # mutation for a session we never learned; version advances
        elif kind == "join":
            session.roster.add(Member(**data))
        elif kind == "leave":
            session.leave(data["participant"])
        elif kind == "terminate":
            session.terminate()
        elif kind == "floor":
            session.floor_holder = data["floor_holder"]
        elif kind == "mute":
            member = session.roster.get(data["target"])
            if member is not None:
                member.muted = data["muted"]
        self._journal_version = op.version
        if op.request_key:
            self._applied[op.request_key] = op.response_xml
            self._applied.move_to_end(op.request_key)
            while len(self._applied) > APPLIED_CACHE_MAX:
                self._applied.popitem(last=False)

    # ------------------------------------------------------ announcements

    def _announce(
        self, announcement: SessionAnnouncement, include_control: bool = True
    ) -> None:
        text = xml_codec.encode(announcement)
        self._publish_text(ANNOUNCEMENTS_TOPIC, text)
        if include_control:
            self._publish_text(control_topic(announcement.session_id), text)

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
