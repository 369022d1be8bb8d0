"""NaradaBrokering-style distributed publish/subscribe middleware.

This is the "General Messaging Middleware" of the paper's Section 2.3: a
dynamic collection of brokers offering topic-based publish/subscribe over
TCP, UDP, SSL, HTTP-tunnel, and raw-RTP client links, with firewall/proxy
traversal, a JMS-like client-server mode and a JXTA-like peer-to-peer mode,
and RTP proxies that bridge native RTP endpoints onto broker topics.
"""

from repro.broker.event import NBEvent
from repro.broker.topic import TopicError, match_topic, validate_pattern, validate_topic
from repro.broker.profile import BrokerProfile, NARADA_PROFILE, UNOPTIMIZED_PROFILE
from repro.broker.route_cache import RouteCache, RouteEntry
from repro.broker.spec import FAST_MESH, FabricSpec, MeshTiming
from repro.broker.broker import Broker
from repro.broker.network import BrokerNetwork
from repro.broker.client import BrokerClient, Failover, LinkType
from repro.broker.p2p import P2PGroup, RendezvousService
from repro.broker.rtp_proxy import RtpProxy

__all__ = [
    "NBEvent",
    "TopicError",
    "match_topic",
    "validate_pattern",
    "validate_topic",
    "BrokerProfile",
    "NARADA_PROFILE",
    "UNOPTIMIZED_PROFILE",
    "RouteCache",
    "RouteEntry",
    "FabricSpec",
    "MeshTiming",
    "FAST_MESH",
    "Broker",
    "BrokerNetwork",
    "BrokerClient",
    "Failover",
    "LinkType",
    "P2PGroup",
    "RendezvousService",
    "RtpProxy",
]
