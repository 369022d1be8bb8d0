"""The XGSP side of a community gateway.

The SIP and H.323 gateways translate different signaling, but bridge a
call into a session the same way (Section 3.2): a join request to the
session server over the broker, a per-call :class:`RtpProxy` next to the
broker that carries the call's media on and off the session's topics,
and a ``LeaveSession`` plus proxy teardown when the call ends.
:class:`XgspBridge` is that shared half; each gateway owns one and keeps
only its protocol's translation.

Its signaling retries a join with the same request id, so a session
server failover mid-call-setup resolves through duplicate suppression
rather than a protocol-level timeout (DESIGN.md §5d), and a broker
failover moves new call legs to the broker the signaling reached.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.broker.broker import Broker
from repro.broker.client import Failover
from repro.broker.rtp_proxy import RtpProxy
from repro.core.xgsp.client import SIGNALING_RETRIES, XgspClient
from repro.core.xgsp.messages import JoinAccepted, LeaveSession
from repro.obs.metrics import SIGNALING_BUCKETS_S, MetricsRegistry
from repro.simnet.node import Host


class CallLeg:
    """One call's place in an XGSP session: the accepted join, the RTP
    proxy bridging its media, and when the call asked to join."""

    __slots__ = ("accepted", "proxy", "requested_at")

    def __init__(
        self, accepted: JoinAccepted, proxy: RtpProxy, requested_at: float
    ):
        self.accepted = accepted
        self.proxy = proxy
        self.requested_at = requested_at


class XgspBridge:
    """A gateway's XGSP signaling client, call legs and join metrics.

    ``failover`` covers the signaling client and every call leg's RTP
    proxy.  ``metrics`` holds the tutorial's operational figures: join
    latency (call setup to the protocol's answer, i.e. signaling plus the
    XGSP round trip) and join to first outbound media.
    """

    def __init__(
        self,
        host: Host,
        broker: Broker,
        gateway_id: str,
        failover: Optional[Failover],
    ):
        self.sim = host.sim
        self.broker = broker
        self.failover = failover
        self.xgsp = XgspClient(
            host, broker, gateway_id,
            failover=failover, max_retries=SIGNALING_RETRIES,
        )
        self.xgsp.broker_client.on_failover = self._on_broker_failover
        self.legs: Dict[str, CallLeg] = {}  # call id -> leg
        self.joins_accepted = 0
        self.joins_rejected = 0
        self.failovers = 0
        self.metrics = MetricsRegistry()
        self.join_latency = self.metrics.histogram(
            "join_latency_s", SIGNALING_BUCKETS_S
        )
        self.join_to_first_media = self.metrics.histogram(
            "join_to_first_media_s", SIGNALING_BUCKETS_S
        )
        self.metrics.expose("joins_accepted", lambda: self.joins_accepted)
        self.metrics.expose("joins_rejected", lambda: self.joins_rejected)
        self.metrics.expose("failovers", lambda: self.failovers)
        self.metrics.expose("legs", lambda: len(self.legs))

    def _on_broker_failover(self, _client, broker: Broker) -> None:
        """Signaling moved to a new broker: new legs attach there too.
        Existing legs' RTP proxies run their own failover clients."""
        self.broker = broker
        self.failovers += 1

    def open_leg(
        self,
        call_id: str,
        accepted: JoinAccepted,
        proxy_id: str,
        requested_at: float,
    ) -> CallLeg:
        """The session took the call: count the join and deploy the
        call's RTP proxy next to the broker."""
        self.joins_accepted += 1
        proxy = RtpProxy(
            self.broker.host, self.broker, proxy_id=proxy_id,
            failover=self.failover,
        )
        leg = self.legs[call_id] = CallLeg(accepted, proxy, requested_at)
        return leg

    def joined(self, leg: CallLeg) -> None:
        """The call is up: record its join latency and time its first
        outbound media."""
        joined_at = self.sim.now
        self.join_latency.observe(joined_at - leg.requested_at)
        leg.proxy.on_first_media = (
            lambda _topic, at: self.join_to_first_media.observe(at - joined_at)
        )

    def close_leg(self, call_id: str) -> None:
        """The call ended: leave the session and tear the proxy down."""
        leg = self.legs.pop(call_id, None)
        if leg is None:
            return
        accepted = leg.accepted
        self.xgsp.request(
            LeaveSession(
                session_id=accepted.session_id, participant=accepted.participant
            )
        )
        leg.proxy.close()
