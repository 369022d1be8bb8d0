"""The ``conference_signaling`` workload: the only one that runs the
signaling stacks (XGSP XML codec, SIP, H.323, SOAP, session server),
``rtp`` and the reliable control topics.

``GlobalMMCS`` on a 4-broker star hosts 40 XGSP sessions.  Per session 6
SIP users (INVITE + SDP through proxy and gateway), 3 H.323 terminals
(ARQ / Setup / H.245) and 9 native XGSP clients join on a fixed
10 ms-spaced schedule, stay 4 s, leave, and rejoin every cycle, while
one native speaker per session sends a short 50 pps audio burst per
cycle that the gateways' ``RtpProxy`` legs bridge to the SIP and H.323
members.  Media is kept small so signaling stays visible.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.mmcs import GlobalMMCS, MMCSConfig
from repro.core.xgsp.client import XgspClient
from repro.core.xgsp.messages import JoinAccepted
from repro.core.xgsp.translation import conference_alias, conference_sip_uri
from repro.rtp.media import AudioSource
from repro.simnet.udp import UdpSocket
from repro.sip.sdp import SessionDescription

from perf.workloads import StreamTap, Workload, sized

SIP_AUDIO_PORT = 41000
SIP_VIDEO_PORT = 41002


class _Member:
    """One participant; subclasses speak one signaling protocol."""

    def __init__(self, workload: "ConferenceSignaling", session: "_Session"):
        self.workload = workload
        self.session = session
        self.tap: Optional[StreamTap] = None
        self._asked_at = 0.0

    def join(self) -> None:
        self.workload.joins_attempted += 1
        self._asked_at = self.workload.sim.now
        self.ask()

    def answered(self) -> None:
        workload = self.workload
        workload.join_latencies_s.append(workload.sim.now - self._asked_at)

    def on_media(self, packet) -> None:
        self.workload.deliveries += 1
        if self.tap is not None:
            self.tap.on_packet(packet)

    def ask(self) -> None:
        raise NotImplementedError

    def leave(self) -> None:
        raise NotImplementedError


class _SipMember(_Member):
    def __init__(self, workload, session, user: str):
        super().__init__(workload, session)
        mmcs = workload.mmcs
        self.agent = mmcs.create_sip_user(user)
        self.uri = conference_sip_uri(session.session_id, mmcs.config.sip_domain)
        self.offer = (
            SessionDescription(user, self.agent.host.name)
            .add_media("audio", SIP_AUDIO_PORT, [0])
            .add_media("video", SIP_VIDEO_PORT, [31])
        )
        self.dialog = None
        UdpSocket(self.agent.host, SIP_AUDIO_PORT).on_receive(
            lambda packet, _src, _datagram: self.on_media(packet)
        )

    def ask(self) -> None:
        self.agent.invite(self.uri, self.offer, on_answer=self._on_answer)

    def _on_answer(self, dialog, _sdp) -> None:
        self.dialog = dialog
        self.answered()

    def leave(self) -> None:
        # An unanswered join has no dialog to end; it is already counted
        # as a failed operation.
        if self.dialog is not None:
            self.agent.bye(self.dialog)
            self.dialog = None


class _H323Member(_Member):
    def __init__(self, workload, session, alias: str):
        super().__init__(workload, session)
        self.terminal = workload.mmcs.create_h323_terminal(alias)
        self.terminal.on_media = lambda _call, packet: self.on_media(packet)
        self.alias = conference_alias(session.session_id)
        self.call = None

    def ask(self) -> None:
        self.terminal.call(self.alias, on_connected=self._on_connected)

    def _on_connected(self, call) -> None:
        self.call = call
        self.answered()

    def leave(self) -> None:
        if self.call is not None:
            self.call.hangup()
            self.call = None


class _NativeMember(_Member):
    def __init__(self, workload, session, participant: str, broker):
        super().__init__(workload, session)
        self.client = XgspClient(
            workload.mmcs.new_host(f"{participant}-host"), broker, participant
        )
        workload.clients.append(self.client.broker_client)
        self.joined = False

    def ask(self) -> None:
        self.client.join(self.session.session_id, on_result=self._on_result)

    def _on_result(self, response) -> None:
        if isinstance(response, JoinAccepted):
            self.joined = True
            self.client.subscribe_media(
                self.session.audio_topic,
                lambda event: self.on_media(event.payload),
            )
            self.answered()

    def leave(self) -> None:
        if self.joined:
            self.joined = False
            self.client.broker_client.unsubscribe(self.session.audio_topic)
            self.client.leave(self.session.session_id)


class _Session:
    """One XGSP session, its members and its speaker's audio source."""

    def __init__(self, workload: "ConferenceSignaling", created):
        self.workload = workload
        self.session_id = created.session_id
        self.audio_topic = next(
            media.topic for media in created.media if media.kind == "audio"
        )
        self.members: List[_Member] = []
        self.source: Optional[AudioSource] = None
        self._burst_end = 0

    def burst(self) -> None:
        """The speaker talks for one burst; also the roster check."""
        workload = self.workload
        session = workload.mmcs.session_server.session(self.session_id)
        workload.roster_at_burst += len(session.roster)
        self._burst_end = self.source.packets_sent + workload.BURST_PACKETS
        self.source.start()

    def send(self, packet) -> None:
        speaker = self.members[-1]
        speaker.client.publish_media(self.audio_topic, packet, packet.wire_size)
        if self.source.packets_sent == self._burst_end:
            self.source.stop()


class ConferenceSignaling(Workload):
    name = "conference_signaling"
    traceable = False  # GlobalMMCS builds its own fabric, without a tracer
    SESSIONS = 40
    SIP_USERS = 6
    H323_TERMINALS = 3
    NATIVE_CLIENTS = 9
    JOIN_SPACING_S = 0.010
    STAY_S = 4.0
    #: Speaker starts this long after the session's last scheduled join.
    BURST_AFTER_S = 1.5
    BURST_PACKETS = 30
    FULL_CYCLES = 5
    SETTLE_S = 4.0
    DRAIN_S = 3.0

    def sizes(self):
        return {
            "sessions": self.SESSIONS,
            "members_per_session": self.members_per_session,
            "cycles": sized(self.FULL_CYCLES, self.scale),
            "burst_packets": self.BURST_PACKETS,
        }

    @property
    def members_per_session(self) -> int:
        return self.SIP_USERS + self.H323_TERMINALS + self.NATIVE_CLIENTS

    def setup(self) -> None:
        mmcs = self.mmcs = GlobalMMCS(MMCSConfig(
            seed=self.seed, broker_topology="star", broker_count=4,
            enable_streaming=False, enable_accessgrid=False,
        ))
        # The world is the one GlobalMMCS assembled.
        self.sim, self.net = mmcs.sim, mmcs.net
        self.brokers = mmcs.broker_network.brokers()
        self.clients = [
            mmcs.admin.broker_client,
            mmcs.sip_gateway.xgsp.broker_client,
            mmcs.h323_gateway.xgsp.broker_client,
        ]
        mmcs.start()
        created = []
        for index in range(self.SESSIONS):
            mmcs.admin.create_session(
                f"perf conference {index}", on_created=created.append
            )
        mmcs.run_for(2.0)
        if len(created) != self.SESSIONS:
            raise RuntimeError(
                f"only {len(created)} of {self.SESSIONS} sessions were created"
            )
        self.sessions = [_Session(self, reply) for reply in created]
        self.roster_at_burst = 0
        for s, session in enumerate(self.sessions):
            members = session.members
            for i in range(self.SIP_USERS):
                members.append(_SipMember(self, session, f"sip{s}u{i}"))
            for i in range(self.H323_TERMINALS):
                members.append(_H323Member(self, session, f"h323s{s}t{i}"))
            for i in range(self.NATIVE_CLIENTS):
                broker = self.brokers[(s + i) % len(self.brokers)]
                members.append(_NativeMember(self, session, f"nat{s}c{i}", broker))
            # One instrumented member per session: the first SIP user,
            # who hears the speaker through an RtpProxy leg.
            members[0].tap = self.tap()
            session.source = AudioSource(self.sim, session.send)
        mmcs.run_for(self.SETTLE_S)

    def measure(self) -> None:
        cycles = self.sizes()["cycles"]
        members = self.members_per_session
        session_window = members * self.JOIN_SPACING_S
        # Each session rejoins one cycle after it joined; a session has
        # left (STAY_S after its last join) well before that.
        cycle_s = self.SESSIONS * session_window
        for cycle in range(cycles):
            for s, session in enumerate(self.sessions):
                start = cycle * cycle_s + s * session_window
                for m, member in enumerate(session.members):
                    at = start + m * self.JOIN_SPACING_S
                    self.sim.schedule(at, member.join)
                    self.sim.schedule(at + self.STAY_S, member.leave)
                self.sim.schedule(
                    start + session_window + self.BURST_AFTER_S, session.burst
                )
        self.sim.run_for(cycles * cycle_s + self.STAY_S + self.DRAIN_S)

    def expectations(self):
        cycles = self.sizes()["cycles"]
        bursts = self.SESSIONS * cycles
        joins = bursts * self.members_per_session
        heard = sum(s.packet_count for s in self.receiver_stats())
        rosters_now = sum(
            len(self.mmcs.session_server.session(s.session_id).roster)
            for s in self.sessions
        )
        return {
            # Every member but the speaker hears every burst packet.
            "deliveries": (
                self.deliveries,
                bursts * self.BURST_PACKETS * (self.members_per_session - 1),
            ),
            "instrumented_deliveries": (heard, bursts * self.BURST_PACKETS),
            "joins_completed": (len(self.join_latencies_s), joins),
            "roster_at_burst": (self.roster_at_burst, len(self.join_latencies_s)),
            "roster_after_leaves": (rosters_now, 0),
        }
