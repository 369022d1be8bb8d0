"""The XGSP Web Server — the SOAP facade of Global-MMCS.

Portals and community systems reach Global-MMCS through this service
("Through SOAP connection, the XGSP Web Server can invoke web-services
provided by other communities" — and vice versa).  Every operation is
translated into XGSP signaling toward the session server over the broker;
SOAP responses are completed asynchronously when the signaling response
arrives (see :class:`repro.soap.service.PendingResult`).
"""

from __future__ import annotations

from typing import Optional

from repro.broker.broker import Broker
from repro.broker.links import LinkType
from repro.core.xgsp.calendar import CalendarError, MeetingCalendar
from repro.core.xgsp.client import SIGNALING_RETRIES, XgspClient
from repro.core.xgsp.directory import XgspDirectory
from repro.core.xgsp.messages import (
    CreateSession,
    InviteUser,
    JoinAccepted,
    JoinRejected,
    JoinSession,
    LeaveSession,
    SessionCreated,
    SessionList,
    SessionTerminated,
)
from repro.simnet.node import Host
from repro.soap.client import SoapClient
from repro.soap.envelope import SoapFault
from repro.soap.service import PendingResult, SoapService
from repro.soap.wsdl import Operation, WsdlDocument


class XgspWebServer:
    """SOAP service ``XGSPSessionService`` + hosting for the directory."""

    SERVICE = "XGSPSessionService"

    def __init__(
        self,
        host: Host,
        broker: Broker,
        directory: Optional[XgspDirectory] = None,
        soap_port: int = 8080,
        participant_id: str = "xgsp-web-server",
    ):
        self.host = host
        self.sim = host.sim
        self.directory = directory if directory is not None else XgspDirectory()
        # Retries ride the server's duplicate suppression, so a portal
        # request survives a session-server failover without re-entering
        # the SOAP operation (DESIGN.md §5d).
        self.signaling = XgspClient(
            host, broker, participant_id, link_type=LinkType.TCP,
            max_retries=SIGNALING_RETRIES,
        )
        self.calendar = MeetingCalendar(self.signaling)
        self.soap = SoapService(host, soap_port)
        self.soap_client = SoapClient(host)  # for invoking community services
        self.directory.expose(self.soap)
        self._register_session_service()

    @property
    def address(self):
        return self.soap.address

    # --------------------------------------------------------------- WSDL

    @staticmethod
    def wsdl() -> WsdlDocument:
        return (
            WsdlDocument(service=XgspWebServer.SERVICE,
                         doc="Global-MMCS session facade")
            .add(Operation.make("createSession", required=["title", "creator"],
                                optional=["media", "mode", "community"]))
            .add(Operation.make("terminateSession",
                                required=["session_id", "requester"]))
            .add(Operation.make("joinSession",
                                required=["session_id", "participant"],
                                optional=["community", "terminal", "media"]))
            .add(Operation.make("leaveSession",
                                required=["session_id", "participant"]))
            .add(Operation.make("inviteUser",
                                required=["session_id", "inviter", "invitee"],
                                optional=["note"]))
            .add(Operation.make("listSessions", optional=["community"]))
            .add(Operation.make("scheduleMeeting",
                                required=["room", "title", "organizer",
                                          "start", "duration"],
                                optional=["invitees", "media"]))
            .add(Operation.make("cancelMeeting", required=["reservation_id"]))
            .add(Operation.make("listMeetings", optional=["room"]))
        )

    def _register_session_service(self) -> None:
        self.soap.register(self.wsdl())
        bind = lambda op, fn: self.soap.bind(self.SERVICE, op, fn)  # noqa: E731
        bind("createSession", self._op_create)
        bind("terminateSession", self._op_terminate)
        bind("joinSession", self._op_join)
        bind("leaveSession", self._op_leave)
        bind("inviteUser", self._op_invite)
        bind("listSessions", self._op_list)
        bind("scheduleMeeting", self._op_schedule)
        bind("cancelMeeting", self._op_cancel_meeting)
        bind("listMeetings", self._op_list_meetings)

    # ---------------------------------------------------------- operations

    def _op_create(self, title, creator, media=None, mode="adhoc",
                   community="global"):
        pending = PendingResult()

        def done(response) -> None:
            if isinstance(response, SessionCreated):
                pending.resolve({
                    "session_id": response.session_id,
                    "title": response.title,
                    "control_topic": response.control_topic,
                    "media": [
                        {"kind": m.kind, "codec": m.codec, "topic": m.topic}
                        for m in response.media
                    ],
                })
            else:
                pending.fail(SoapFault("Server.Signaling", "unexpected reply"))

        self.signaling.request(
            CreateSession(
                title=title,
                creator=creator,
                media_kinds=list(media) if media else ["audio", "video"],
                mode=mode,
                community=community,
            ),
            on_response=done,
            on_timeout=lambda: pending.fail(
                SoapFault("Server.Timeout", "session server unreachable")
            ),
        )
        return pending

    def _op_terminate(self, session_id, requester):
        pending = PendingResult()

        def done(response) -> None:
            if isinstance(response, SessionTerminated):
                pending.resolve({"session_id": response.session_id,
                                 "result": response.reason})
            else:
                pending.fail(SoapFault("Server.Signaling", "unexpected reply"))

        self.signaling.terminate(session_id, on_result=done)
        # terminate() uses this web server's participant id as requester;
        # the argument records who asked at the portal level.
        return pending

    def _op_join(self, session_id, participant, community="global",
                 terminal="", media=None):
        pending = PendingResult()

        def done(response) -> None:
            if isinstance(response, JoinAccepted):
                pending.resolve({
                    "session_id": response.session_id,
                    "participant": response.participant,
                    "control_topic": response.control_topic,
                    "media": [
                        {"kind": m.kind, "codec": m.codec, "topic": m.topic}
                        for m in response.media
                    ],
                })
            elif isinstance(response, JoinRejected):
                pending.fail(SoapFault("Client.JoinRejected", response.reason))
            else:
                pending.fail(SoapFault("Server.Signaling", "unexpected reply"))

        self.signaling.request(
            JoinSession(
                session_id=session_id,
                participant=participant,
                community=community,
                terminal=terminal,
                media_kinds=list(media) if media else ["audio", "video"],
            ),
            on_response=done,
            on_timeout=lambda: pending.fail(
                SoapFault("Server.Timeout", "session server unreachable")
            ),
        )
        return pending

    def _op_leave(self, session_id, participant):
        pending = PendingResult()
        self.signaling.request(
            LeaveSession(session_id=session_id, participant=participant),
            on_response=lambda response: pending.resolve(
                {"session_id": session_id, "participant": participant}
            ),
            on_timeout=lambda: pending.fail(
                SoapFault("Server.Timeout", "session server unreachable")
            ),
        )
        return pending

    def _op_invite(self, session_id, inviter, invitee, note=""):
        pending = PendingResult()
        self.signaling.request(
            InviteUser(session_id=session_id, inviter=inviter,
                       invitee=invitee, note=note),
            on_response=lambda response: pending.resolve(
                {"session_id": session_id, "invitee": invitee,
                 "result": getattr(response, "detail", "")}
            ),
            on_timeout=lambda: pending.fail(
                SoapFault("Server.Timeout", "session server unreachable")
            ),
        )
        return pending

    def _op_list(self, community=""):
        pending = PendingResult()

        def done(response) -> None:
            if isinstance(response, SessionList):
                pending.resolve({"sessions": response.sessions})
            else:
                pending.fail(SoapFault("Server.Signaling", "unexpected reply"))

        self.signaling.list_sessions(community, on_result=done)
        return pending

    # ------------------------------------------------------------ calendar

    def _op_schedule(self, room, title, organizer, start, duration,
                     invitees=None, media=None):
        try:
            reservation = self.calendar.reserve(
                room=room,
                title=title,
                organizer=organizer,
                start_s=float(start),
                duration_s=float(duration),
                invitees=list(invitees or []),
                media_kinds=list(media) if media else None,
            )
        except CalendarError as exc:
            raise SoapFault("Client.Calendar", str(exc)) from exc
        return {
            "reservation_id": reservation.reservation_id,
            "room": reservation.room,
            "start": reservation.start_s,
        }

    def _op_cancel_meeting(self, reservation_id):
        ok = self.calendar.cancel(int(reservation_id))
        return {"cancelled": ok}

    def _op_list_meetings(self, room=None):
        return {
            "meetings": [
                {
                    "reservation_id": r.reservation_id,
                    "room": r.room,
                    "title": r.title,
                    "start": r.start_s,
                    "duration": r.duration_s,
                    "session_id": r.session_id,
                }
                for r in self.calendar.upcoming(room)
            ]
        }
