"""XGSP signaling client.

Used by gateways, community adapters, and native Global-MMCS clients to
talk to the session server over the broker: send a request, get the
correlated response, subscribe to announcements and per-session control
events.  All signaling is XGSP XML in event payloads.

With ``max_retries`` set, an unanswered request is re-sent on a jittered
exponential backoff **with the same request id** — the session server's
duplicate-suppression table answers a retry of an already-applied
mutation from the recorded response, so retries are idempotent even
across a leader failover (DESIGN.md §5d).  The retry schedule rides
inside the overall ``timeout_s`` budget; ``max_retries=0`` (the default)
is the seed's single-shot behaviour.
"""

from __future__ import annotations

import logging
import random
import zlib
from typing import Any, Callable, Dict, List, Optional

from repro.broker.broker import Broker
from repro.broker.client import BrokerClient
from repro.broker.event import NBEvent
from repro.broker.links import LinkType
from repro.core.xgsp import xml_codec
from repro.core.xgsp.messages import (
    CreateSession,
    FloorControl,
    InviteUser,
    JoinSession,
    LeaveSession,
    ListSessions,
    MuteMember,
    SessionAnnouncement,
    SessionBusy,
    TerminateSession,
)
from repro.core.xgsp.session_server import (
    ANNOUNCEMENTS_TOPIC,
    SERVER_TOPIC,
    WRAPPER_BYTES,
    client_topic,
)
from repro.simnet.kernel import Timer
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.util.backoff import ExponentialBackoff

ResponseCallback = Callable[[Any], None]
AnnouncementCallback = Callable[[SessionAnnouncement], None]

#: How long a signaling request may stay unanswered.
REQUEST_TIMEOUT_S = 10.0

#: Default retry backoff (seconds): base, cap, jitter fraction.
RETRY_BASE_S = 0.5
RETRY_CAP_S = 4.0
RETRY_JITTER = 0.1

_log = logging.getLogger(__name__)


class _PendingRequest:
    """Book-keeping for one in-flight request."""

    __slots__ = ("on_response", "timeout_timer", "retry_timer", "text",
                 "backoff", "retries_left")

    def __init__(self, on_response, timeout_timer, text, backoff,
                 retries_left):
        self.on_response = on_response
        self.timeout_timer = timeout_timer
        self.retry_timer: Optional[Timer] = None
        self.text = text
        self.backoff = backoff
        self.retries_left = retries_left

    def cancel_timers(self) -> None:
        if self.timeout_timer is not None:
            self.timeout_timer.cancel()
            self.timeout_timer = None
        if self.retry_timer is not None:
            self.retry_timer.cancel()
            self.retry_timer = None


class XgspClient:
    """One signaling participant (a user client or a community gateway)."""

    def __init__(
        self,
        host: Host,
        broker: Broker,
        participant_id: str,
        link_type: LinkType = LinkType.UDP,
        proxy: Optional[Address] = None,
        keepalive_interval_s: Optional[float] = None,
        failover_brokers: Optional[List[Broker]] = None,
        max_retries: int = 0,
        retry_base_s: float = RETRY_BASE_S,
        retry_cap_s: float = RETRY_CAP_S,
        retry_jitter: float = RETRY_JITTER,
    ):
        self.host = host
        self.sim = host.sim
        self.participant_id = participant_id
        self.reply_topic = client_topic(participant_id)
        self.max_retries = max_retries
        self.retry_base_s = retry_base_s
        self.retry_cap_s = retry_cap_s
        self.retry_jitter = retry_jitter
        #: Per-participant jitter stream, built by the first retrying
        #: request (see _retry_stream).
        self._retry_rng: Optional[random.Random] = None
        self.broker_client = BrokerClient(
            host,
            client_id=f"xgsp/{participant_id}",
            keepalive_interval_s=keepalive_interval_s,
        )
        if failover_brokers:
            self.broker_client.set_failover_brokers(failover_brokers)
        self.broker_client.connect(broker, link_type=link_type, proxy=proxy)
        self.broker_client.subscribe(self.reply_topic, self._on_reply_event)
        self._pending: Dict[int, _PendingRequest] = {}
        self._announcement_handlers: List[AnnouncementCallback] = []
        self.timeouts = 0
        self.retries_sent = 0
        self.busy_rejections = 0
        self.swallowed_errors = 0

    @property
    def failovers(self) -> int:
        """Broker failovers survived; the reply-topic and announcement
        subscriptions are replayed automatically by the broker client."""
        return self.broker_client.failovers

    # ----------------------------------------------------------- requests

    def request(
        self,
        message: Any,
        on_response: Optional[ResponseCallback] = None,
        on_timeout: Optional[Callable[[], None]] = None,
        timeout_s: float = REQUEST_TIMEOUT_S,
    ) -> int:
        """Send one XGSP request; the correlated response fires the callback.

        With ``max_retries > 0`` the same encoded request (same
        request id) is re-published on a jittered exponential backoff
        until answered or ``timeout_s`` elapses.
        """
        text = xml_codec.encode(message)
        if on_response is not None or on_timeout is not None or self.max_retries:
            timer = self.sim.schedule(
                timeout_s, self._on_timeout, message.request_id, on_timeout
            )
            backoff = None
            if self.max_retries:
                backoff = ExponentialBackoff(
                    self.retry_base_s,
                    self.retry_cap_s,
                    jitter_frac=self.retry_jitter,
                    rng=self._retry_stream(),
                )
            pending = _PendingRequest(
                on_response, timer, text, backoff, self.max_retries
            )
            self._pending[message.request_id] = pending
            if backoff is not None:
                pending.retry_timer = self.sim.schedule(
                    backoff.next_delay(), self._on_retry, message.request_id
                )
        self._publish_request(text)
        return message.request_id

    def _retry_stream(self) -> random.Random:
        """The deterministic per-participant jitter stream (crc32, not
        hash(): str hashing is salted per process and would break
        replays)."""
        if self._retry_rng is None:
            self._retry_rng = random.Random(
                zlib.crc32(self.participant_id.encode())
            )
        return self._retry_rng

    def _publish_request(self, text: str) -> None:
        self.broker_client.publish(
            SERVER_TOPIC,
            {"xml": text, "reply_to": self.reply_topic},
            len(text) + WRAPPER_BYTES,
            reliable=True,
        )

    def _on_retry(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None or pending.retries_left <= 0:
            return
        pending.retries_left -= 1
        pending.retry_timer = None
        self.retries_sent += 1
        self._publish_request(pending.text)
        if pending.retries_left > 0:
            pending.retry_timer = self.sim.schedule(
                pending.backoff.next_delay(), self._on_retry, request_id
            )

    def _on_timeout(self, request_id: int, on_timeout) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is not None:
            pending.timeout_timer = None
            pending.cancel_timers()
            self.timeouts += 1
            if on_timeout is not None:
                on_timeout()

    def _on_reply_event(self, event: NBEvent) -> None:
        payload = event.payload
        if not isinstance(payload, dict) or "xml" not in payload:
            return
        try:
            message = xml_codec.decode(payload["xml"])
        except Exception as exc:
            self.swallowed_errors += 1
            _log.debug(
                "%s dropped undecodable reply (%s)",
                self.participant_id, type(exc).__name__,
            )
            return
        if isinstance(message, SessionAnnouncement) and message.event == "invitation":
            for handler in self._announcement_handlers:
                handler(message)
            return
        if isinstance(message, SessionBusy):
            # Transient admission refusal: keep the request pending (the
            # server kept no record of it) and pace the next retry by the
            # server-supplied hint instead of hammering.  The overall
            # timeout budget keeps running — a persistently busy server
            # still times the request out.
            pending = self._pending.get(message.request_id)
            if pending is None:
                return
            self.busy_rejections += 1
            if pending.backoff is not None and pending.retries_left > 0:
                pending.backoff.note_retry_after(message.retry_after_s)
                if pending.retry_timer is not None:
                    pending.retry_timer.cancel()
                pending.retry_timer = self.sim.schedule(
                    pending.backoff.next_delay(), self._on_retry,
                    message.request_id,
                )
            return
        pending = self._pending.pop(getattr(message, "request_id", -1), None)
        if pending is None:
            return  # duplicate response to a retried request, or stale
        pending.cancel_timers()
        if pending.on_response is not None:
            pending.on_response(message)

    # ------------------------------------------------------ announcements

    def watch_announcements(self, handler: AnnouncementCallback) -> None:
        """Global announcements (session created/terminated everywhere)."""
        self._announcement_handlers.append(handler)
        self.broker_client.subscribe(
            ANNOUNCEMENTS_TOPIC, self._make_announcement_dispatch(handler)
        )

    def watch_session(self, control_topic: str, handler: AnnouncementCallback) -> None:
        """Per-session control events (joins/leaves/floor/mute)."""
        self.broker_client.subscribe(
            control_topic, self._make_announcement_dispatch(handler)
        )

    def _make_announcement_dispatch(self, handler: AnnouncementCallback):
        def dispatch(event: NBEvent) -> None:
            payload = event.payload
            if not isinstance(payload, dict) or "xml" not in payload:
                return
            try:
                message = xml_codec.decode(payload["xml"])
            except Exception as exc:
                self.swallowed_errors += 1
                _log.debug(
                    "%s dropped undecodable announcement (%s)",
                    self.participant_id, type(exc).__name__,
                )
                return
            if isinstance(message, SessionAnnouncement):
                handler(message)

        return dispatch

    # -------------------------------------------------------- convenience

    def create_session(
        self,
        title: str,
        media_kinds: Optional[List[str]] = None,
        mode: str = "adhoc",
        community: str = "global",
        on_created: Optional[ResponseCallback] = None,
    ) -> int:
        return self.request(
            CreateSession(
                title=title,
                creator=self.participant_id,
                media_kinds=media_kinds or ["audio", "video"],
                mode=mode,
                community=community,
            ),
            on_created,
        )

    def join(
        self,
        session_id: str,
        community: str = "global",
        terminal: str = "",
        media_kinds: Optional[List[str]] = None,
        on_result: Optional[ResponseCallback] = None,
    ) -> int:
        return self.request(
            JoinSession(
                session_id=session_id,
                participant=self.participant_id,
                community=community,
                terminal=terminal,
                media_kinds=media_kinds or ["audio", "video"],
            ),
            on_result,
        )

    def leave(self, session_id: str, on_result=None) -> int:
        return self.request(
            LeaveSession(session_id=session_id, participant=self.participant_id),
            on_result,
        )

    def terminate(self, session_id: str, on_result=None) -> int:
        return self.request(
            TerminateSession(session_id=session_id, requester=self.participant_id),
            on_result,
        )

    def invite(self, session_id: str, invitee: str, note: str = "", on_result=None) -> int:
        return self.request(
            InviteUser(
                session_id=session_id,
                inviter=self.participant_id,
                invitee=invitee,
                note=note,
            ),
            on_result,
        )

    def floor(self, session_id: str, action: str, on_result=None) -> int:
        return self.request(
            FloorControl(
                session_id=session_id,
                participant=self.participant_id,
                action=action,
            ),
            on_result,
        )

    def mute(self, session_id: str, target: str, muted: bool = True, on_result=None) -> int:
        return self.request(
            MuteMember(
                session_id=session_id,
                requester=self.participant_id,
                target=target,
                muted=muted,
            ),
            on_result,
        )

    def list_sessions(self, community: str = "", on_result=None) -> int:
        return self.request(ListSessions(community=community), on_result)

    # -------------------------------------------------------------- media

    def publish_media(self, topic: str, payload: Any, size: int) -> None:
        """Publish one media packet on a session media topic."""
        self.broker_client.publish(topic, payload, size)

    def subscribe_media(self, topic: str, handler: Callable[[NBEvent], None]) -> None:
        self.broker_client.subscribe(topic, handler)

    def disconnect(self) -> None:
        self.broker_client.disconnect()
