"""XGSP — the XML-based General Session Protocol.

"XGSP solves the issue of interconnecting the different collaboration
tools for the same session ... it is necessary to define only one session
protocol which can be translated into AccessGrid, H.323, SIP messages and
vice versa" (Section 2.2).

Modules:

* :mod:`messages` / :mod:`xml_codec` — the protocol vocabulary and its XML
  wire form.
* :mod:`session` / :mod:`roster` — session state and membership.
* :mod:`session_server` — the XGSP Session Server (signaling over broker
  topics, topic provisioning, community notification).
* :mod:`replication` — the replica plane a session server builds only when
  replicated (heartbeats, election, journal, snapshots, promotion).
* :mod:`client` — the signaling client used by gateways and native clients.
* :mod:`web_server` — the SOAP facade (XGSP Web Server).
* :mod:`directory` — naming & directory server (users, terminals,
  communities, collaboration servers).
* :mod:`wsdl_ci` — the WSDL Collaboration Interface definition + adapters.
* :mod:`calendar` / :mod:`scheduler` — scheduled vs ad-hoc collaboration.
* :mod:`translation` — XGSP ↔ SIP / H.323 mapping helpers.
"""

from repro.core.xgsp.messages import (
    CreateSession,
    FloorAction,
    FloorControl,
    InviteUser,
    JoinAccepted,
    JoinRejected,
    JoinSession,
    LeaveSession,
    MediaDescription,
    SessionAnnouncement,
    SessionCreated,
    SessionTerminated,
    TerminateSession,
    XgspError,
)
from repro.core.xgsp.session import Session, SessionMode, SessionState
from repro.core.xgsp.session_server import XgspSessionServer
from repro.core.xgsp.client import XgspClient
from repro.core.xgsp.directory import XgspDirectory
from repro.core.xgsp.web_server import XgspWebServer
from repro.core.xgsp.calendar import MeetingCalendar, Reservation

__all__ = [
    "CreateSession",
    "FloorAction",
    "FloorControl",
    "InviteUser",
    "JoinAccepted",
    "JoinRejected",
    "JoinSession",
    "LeaveSession",
    "MediaDescription",
    "SessionAnnouncement",
    "SessionCreated",
    "SessionTerminated",
    "TerminateSession",
    "XgspError",
    "Session",
    "SessionMode",
    "SessionState",
    "XgspSessionServer",
    "XgspClient",
    "XgspDirectory",
    "XgspWebServer",
    "MeetingCalendar",
    "Reservation",
]
