"""RTP proxies: native RTP endpoints ↔ broker topics.

Section 3.2: "Any RTP client or server who wants to join in this session,
it can 'subscribe' to this topic and 'publish' its RTP messages through
RTP Proxies in the NaradaBrokering system."

An :class:`RtpProxy` is deployed next to a broker (typically on the same
host, reached over loopback).  It terminates raw RTP/UDP on local ports
and re-publishes packets onto a topic (inbound bridge), and/or subscribes
to a topic and emits raw RTP datagrams to a native endpoint (outbound
bridge).  The H.323 and SIP gateways use these bridges to redirect their
endpoints' RTP channels into the broker network.

Given a :class:`~repro.broker.client.Failover`, the proxy's broker
client detects broker loss and fails over; the subscription replay
re-establishes every outbound bridge on the new broker automatically, and
inbound packets published during the outage are flushed on reconnect.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

from repro.broker.broker import Broker
from repro.broker.client import BrokerClient, Failover
from repro.broker.event import NBEvent, PRIORITY_VIDEO
from repro.broker.links import LinkType
from repro.obs.trace import Tracer
from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.simnet.transport import UDP_HEADER_BYTES
from repro.simnet.udp import UdpSocket


class RtpProxy:
    """Bridges raw RTP traffic to and from broker topics."""

    def __init__(
        self,
        host: Host,
        broker: Broker,
        proxy_id: str,
        link_type: LinkType = LinkType.UDP,
        failover: Optional[Failover] = None,
        tracer: Optional[Tracer] = None,
        playout_budget_s: Optional[float] = None,
        video_playout_budget_s: Optional[float] = None,
        region: Optional[str] = None,
    ):
        self.host = host
        self.proxy_id = proxy_id
        #: Geographic pin (PR 10): a regional deployment keeps the media
        #: bridge next to its regional broker cluster, so intra-region
        #: RTP keeps flowing while transoceanic links are down.  The pin
        #: reorders failover candidates — same-region brokers first — so
        #: broker loss during a partition fails over *inside* the region
        #: instead of stalling on unreachable transoceanic candidates.
        self.region = region
        #: Overload degradation at the media egress edge: an event whose
        #: end-to-end age exceeds its playout budget is useless to a
        #: real-time receiver — emitting it would only displace fresh
        #: media.  Video gets the tighter budget (defaults to half the
        #: audio one), so under backlog video drops before audio.
        self.playout_budget_s = playout_budget_s
        self.video_playout_budget_s = (
            video_playout_budget_s
            if video_playout_budget_s is not None
            else (playout_budget_s / 2 if playout_budget_s is not None else None)
        )
        self.late_drops_audio = 0
        self.late_drops_video = 0
        #: Samples at the media ingress edge: a traced packet carries its
        #: proxy hop before the first broker hop.
        self.tracer = tracer
        if failover is not None and region is not None:
            failover = replace(failover, brokers=sorted(
                failover.brokers, key=lambda broker: broker.region != region
            ))
        self.client = BrokerClient(
            host, client_id=f"rtp-proxy/{proxy_id}", failover=failover
        )
        self.client.connect(broker, link_type=link_type)
        self._inbound: Dict[int, Tuple[UdpSocket, str]] = {}
        # (topic, destination) -> (socket, subscription handler) — the
        # handler reference is what per-handler unsubscribe needs so two
        # bridges sharing a topic do not tear each other down.
        self._outbound: Dict[
            Tuple[str, Address], Tuple[UdpSocket, Callable[[NBEvent], None]]
        ] = {}
        self.packets_in = 0
        self.packets_out = 0
        #: First outbound delivery per topic (virtual time) — what the
        #: gateways' "join → first media" latency is measured against.
        self.first_media_at: Dict[str, float] = {}
        #: Fired once per topic on its first outbound delivery.
        self.on_first_media: Optional[Callable[[str, float], None]] = None

    @property
    def failovers(self) -> int:
        """How many times the proxy's client failed over to a new broker."""
        return self.client.failovers

    # ------------------------------------------------------------ inbound

    def bridge_inbound(self, topic: str, port: Optional[int] = None) -> Address:
        """Open a local RTP port; packets received there are published on
        ``topic``.  Returns the address native endpoints should send to."""
        socket = UdpSocket(self.host, port)

        def on_packet(payload, src, datagram, topic=topic):
            self.packets_in += 1
            event = self.client.publish(
                topic, payload, max(1, datagram.size - UDP_HEADER_BYTES)
            )
            if self.tracer is not None:
                context = self.tracer.sample(event, self.client.sim.now)
                if context is not None:
                    # The proxy is the media-ingress hop: the publish CPU
                    # cost is charged to it, the wire to the first broker
                    # shows up as that broker hop's link share.
                    hop = context.begin_hop(
                        self.proxy_id, "proxy", self.client.sim.now
                    )
                    hop.cpu_s = self.client.publish_cpu_cost_s
                    hop.departed_at = self.client.sim.now
                    hop.link = self.client.broker_id or "broker"

        socket.on_receive(on_packet)
        self._inbound[socket.port] = (socket, topic)
        return socket.local_address

    def close_inbound(self, port: int) -> None:
        entry = self._inbound.pop(port, None)
        if entry is not None:
            entry[0].close()

    # ----------------------------------------------------------- outbound

    def bridge_outbound(self, topic: str, destination: Address) -> None:
        """Subscribe to ``topic`` and forward each event to ``destination``
        as a raw RTP datagram (no broker envelope on the last hop)."""
        key = (topic, destination)
        if key in self._outbound:
            return
        socket = UdpSocket(self.host)

        def on_event(event: NBEvent, dst=destination, sock=socket):
            if sock.closed:
                return
            if self.playout_budget_s is not None:
                budget = (
                    self.video_playout_budget_s
                    if event.priority >= PRIORITY_VIDEO
                    else self.playout_budget_s
                )
                if self.client.sim.now - event.published_at > budget:
                    # Late beyond playout: drop stale media before fresh
                    # media ever waits behind it (video before audio —
                    # its budget is tighter).
                    if event.priority >= PRIORITY_VIDEO:
                        self.late_drops_video += 1
                    else:
                        self.late_drops_audio += 1
                    return
            self.packets_out += 1
            if event.topic not in self.first_media_at:
                now = self.client.sim.now
                self.first_media_at[event.topic] = now
                if self.on_first_media is not None:
                    self.on_first_media(event.topic, now)
            sock.sendto(event.payload, event.size, dst)

        self.client.subscribe(topic, on_event)
        self._outbound[key] = (socket, on_event)

    def close_outbound(self, topic: str, destination: Address) -> None:
        entry = self._outbound.pop((topic, destination), None)
        if entry is not None:
            socket, handler = entry
            # Withdraw this bridge's handler; the broker-side subscription
            # is only dropped when no other bridge shares the topic.
            self.client.unsubscribe(topic, handler)
            socket.close()

    def close(self) -> None:
        for socket, _topic in self._inbound.values():
            socket.close()
        for (topic, _destination), (socket, handler) in self._outbound.items():
            self.client.unsubscribe(topic, handler)
            socket.close()
        self._inbound.clear()
        self._outbound.clear()
        self.client.disconnect()
