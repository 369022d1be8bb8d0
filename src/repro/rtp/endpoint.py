"""RTP media endpoints over broker topics.

Native Global-MMCS clients speak RTP *through the broker*: packets are
published on the session's media topic and RTCP reports on a sibling
``<topic>/rtcp`` topic.  :class:`MediaEndpoint` packages that pattern —
an :class:`~repro.rtp.session.RtpSession` (stats, playout, RTCP) bound to
a :class:`~repro.broker.client.BrokerClient` — so applications write::

    endpoint = MediaEndpoint(host, broker, "alice")
    endpoint.attach(topic)                      # receive + stats + RTCP
    source = AudioSource(sim, endpoint.sender(topic))
    source.start()
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.broker.broker import Broker
from repro.broker.client import BrokerClient
from repro.broker.event import NBEvent
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import ReceiverReport, SenderReport
from repro.rtp.session import RtpSession
from repro.rtp.stats import ReceiverStats
from repro.simnet.node import Host


def rtcp_topic(media_topic: str) -> str:
    return f"{media_topic}/rtcp"


class MediaEndpoint:
    """One participant's RTP endpoint on broker-carried media topics."""

    def __init__(
        self,
        host: Host,
        broker: Broker,
        endpoint_id: str,
        playout_delay_s: Optional[float] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.endpoint_id = endpoint_id
        self.client = BrokerClient(host, client_id=f"media/{endpoint_id}")
        self.client.connect(broker)
        self._sessions: Dict[str, RtpSession] = {}
        self._playout_delay_s = playout_delay_s

    # ------------------------------------------------------------- wiring

    def session_for(self, topic: str) -> RtpSession:
        session = self._sessions.get(topic)
        if session is None:
            session = RtpSession(
                self.sim,
                name=f"{self.endpoint_id}:{topic}",
                send_media=lambda packet, topic=topic: self._publish_media(
                    topic, packet
                ),
                send_rtcp=lambda report, size, topic=topic: self._publish_rtcp(
                    topic, report, size
                ),
                playout_delay_s=self._playout_delay_s,
            )
            self._sessions[topic] = session
        return session

    def attach(
        self,
        topic: str,
        on_media: Optional[Callable[[RtpPacket], None]] = None,
        rtcp: bool = True,
    ) -> RtpSession:
        """Subscribe to a media topic (and its RTCP sibling); returns the
        RTP session holding the per-source stats."""
        session = self.session_for(topic)
        if on_media is not None:
            session.on_media(on_media)
        self.client.subscribe(
            topic,
            lambda event, session=session: self._on_media_event(session, event),
        )
        if rtcp:
            self.client.subscribe(
                rtcp_topic(topic),
                lambda event, session=session: self._on_rtcp_event(session, event),
            )
            session.start_rtcp()
        return session

    def sender(self, topic: str) -> Callable[[RtpPacket], None]:
        """A ``send`` hook for a MediaSource publishing on ``topic``."""
        session = self.session_for(topic)
        return session.send_packet

    # ------------------------------------------------------------ queries

    def stats_for(self, topic: str, ssrc: int) -> Optional[ReceiverStats]:
        session = self._sessions.get(topic)
        return session.stats_for(ssrc) if session is not None else None

    def reception_reports(self, topic: str):
        """Receiver reports heard from other endpoints on this topic."""
        session = self._sessions.get(topic)
        return list(session.received_receiver_reports) if session else []

    def heard_senders(self, topic: str):
        session = self._sessions.get(topic)
        return session.heard_sources() if session else []

    # ----------------------------------------------------------- plumbing

    def _publish_media(self, topic: str, packet: RtpPacket) -> None:
        self.client.publish(topic, packet, packet.wire_size)

    def _publish_rtcp(self, topic: str, report, size: int) -> None:
        self.client.publish(rtcp_topic(topic), report, size)

    def _on_media_event(self, session: RtpSession, event: NBEvent) -> None:
        if isinstance(event.payload, RtpPacket):
            session.receive_media(event.payload)

    def _on_rtcp_event(self, session: RtpSession, event: NBEvent) -> None:
        if isinstance(event.payload, (SenderReport, ReceiverReport)):
            session.receive_rtcp(event.payload)

    def close(self) -> None:
        for session in self._sessions.values():
            session.stop_rtcp()
        self.client.disconnect()
