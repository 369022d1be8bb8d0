"""XGSP session state.

A session is the unit of collaboration: a set of media streams (each
mapped to a broker topic), a roster, floor-control state, and a lifecycle.
Topic layout (created by the session server when the session activates):

* control:  ``/xgsp/sessions/<sid>/control``
* media:    ``/xgsp/sessions/<sid>/media/<kind>``
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.core.xgsp.messages import MediaDescription, XgspError
from repro.core.xgsp.roster import Member, Roster

_session_numbers = itertools.count(1)

#: Default codec per media kind (what heterogeneous clients transcode to).
DEFAULT_CODECS = {
    "audio": "g711u",
    "video": "h261",
    "chat": "text",
    "app": "binary",
}


class SessionState:
    SCHEDULED = "scheduled"
    ACTIVE = "active"
    TERMINATED = "terminated"


class SessionMode:
    ADHOC = "adhoc"
    SCHEDULED = "scheduled"


def allocate_session_id() -> str:
    return f"session-{next(_session_numbers)}"


def control_topic(session_id: str) -> str:
    return f"/xgsp/sessions/{session_id}/control"


def media_topic(session_id: str, kind: str) -> str:
    return f"/xgsp/sessions/{session_id}/media/{kind}"


class Session:
    """One collaboration session."""

    def __init__(
        self,
        session_id: str,
        title: str,
        creator: str,
        media_kinds: List[str],
        mode: str = SessionMode.ADHOC,
        community: str = "global",
    ):
        if not media_kinds:
            raise XgspError("a session needs at least one media kind")
        self.session_id = session_id
        self.title = title
        self.creator = creator
        self.mode = mode
        self.community = community
        self.state = SessionState.ACTIVE
        self.roster = Roster()
        self.floor_holder: Optional[str] = None
        self.media: Dict[str, MediaDescription] = {}
        for kind in media_kinds:
            self.media[kind] = MediaDescription(
                kind=kind,
                codec=DEFAULT_CODECS.get(kind, "binary"),
                topic=media_topic(session_id, kind),
            )

    @property
    def control_topic(self) -> str:
        return control_topic(self.session_id)

    def media_list(self) -> List[MediaDescription]:
        return [self.media[kind] for kind in sorted(self.media)]

    def media_for(self, kinds: List[str]) -> List[MediaDescription]:
        """The subset of this session's media a participant asked for."""
        return [self.media[kind] for kind in sorted(kinds) if kind in self.media]

    # ---------------------------------------------------------- lifecycle
    #
    # The session server's one apply path (``XgspSessionServer._apply``)
    # makes every change: joins, floor and mute on the roster and
    # ``floor_holder`` directly, leaves and termination through these.

    def leave(self, participant: str) -> Optional[Member]:
        member = self.roster.remove(participant)
        if self.floor_holder == participant:
            self.floor_holder = None
        return member

    def terminate(self) -> None:
        self.state = SessionState.TERMINATED

    # -------------------------------------------------------- replication

    def to_snapshot(self) -> Dict:
        """Full state dump for replica snapshot transfer (see DESIGN.md
        §5d) — everything :meth:`from_snapshot` needs to rebuild an
        identical hot copy, roster and floor state included."""
        return {
            "session_id": self.session_id,
            "title": self.title,
            "creator": self.creator,
            "mode": self.mode,
            "community": self.community,
            "state": self.state,
            "floor_holder": self.floor_holder,
            "media_kinds": sorted(self.media),
            "members": [
                {
                    "participant": member.participant,
                    "community": member.community,
                    "terminal": member.terminal,
                    "joined_at": member.joined_at,
                    "media_kinds": list(member.media_kinds),
                    "muted": member.muted,
                }
                for member in self.roster.members()
            ],
        }

    @classmethod
    def from_snapshot(cls, data: Dict) -> "Session":
        session = cls(
            session_id=data["session_id"],
            title=data["title"],
            creator=data["creator"],
            media_kinds=list(data["media_kinds"]),
            mode=data["mode"],
            community=data["community"],
        )
        session.state = data["state"]
        session.floor_holder = data["floor_holder"]
        for member in data["members"]:
            session.roster.add(Member(**member))
        return session

    def describe(self) -> Dict:
        return {
            "session_id": self.session_id,
            "title": self.title,
            "creator": self.creator,
            "mode": self.mode,
            "state": self.state,
            "community": self.community,
            "members": len(self.roster),
            "media": sorted(self.media),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Session {self.session_id} {self.state} members={len(self.roster)}>"
