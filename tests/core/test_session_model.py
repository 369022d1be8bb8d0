"""Session state, roster, and floor-control unit tests."""

import pytest

from repro.core.xgsp.messages import XgspError
from repro.core.xgsp.roster import Member, Roster
from repro.core.xgsp.session import Session, control_topic, media_topic


def make_session(media=("audio", "video")):
    return Session("session-1", "title", "creator", list(media))


class TestTopics:
    def test_topic_layout(self):
        assert control_topic("session-1") == "/xgsp/sessions/session-1/control"
        assert media_topic("session-1", "audio") == (
            "/xgsp/sessions/session-1/media/audio"
        )

    def test_session_media_topics(self):
        session = make_session()
        assert session.media["audio"].topic == media_topic("session-1", "audio")
        assert session.media["audio"].codec == "g711u"
        assert session.media["video"].codec == "h261"


class TestRoster:
    def test_add_remove(self):
        roster = Roster()
        assert roster.add(Member("alice")) is True
        assert roster.add(Member("alice")) is False  # rejoin
        assert len(roster) == 1
        assert roster.remove("alice") is not None
        assert roster.remove("alice") is None

    def test_communities_count(self):
        roster = Roster()
        roster.add(Member("a", community="sip"))
        roster.add(Member("b", community="sip"))
        roster.add(Member("c", community="h323"))
        assert roster.communities() == {"sip": 2, "h323": 1}

    def test_participants_sorted(self):
        roster = Roster()
        for name in ("zoe", "alice", "mike"):
            roster.add(Member(name))
        assert roster.participants() == ["alice", "mike", "zoe"]


class TestSession:
    def test_requires_media(self):
        with pytest.raises(XgspError):
            Session("s", "t", "c", [])

    def test_join_leave(self):
        session = make_session()
        session.roster.add(Member("alice"))  # a join, as the server applies it
        assert session.leave("alice") is not None
        assert "alice" not in session.roster
        assert session.leave("alice") is None

    def test_media_for_subset(self):
        session = make_session()
        subset = session.media_for(["audio", "chat"])  # chat not in session
        assert [m.kind for m in subset] == ["audio"]

    def test_floor_released_on_leave(self):
        session = make_session()
        session.roster.add(Member("a"))
        session.roster.add(Member("b"))
        session.floor_holder = "a"
        session.leave("b")
        assert session.floor_holder == "a"
        session.leave("a")
        assert session.floor_holder is None

    def test_describe(self):
        session = make_session()
        session.roster.add(Member("a"))
        description = session.describe()
        assert description["session_id"] == "session-1"
        assert description["members"] == 1
        assert description["media"] == ["audio", "video"]
