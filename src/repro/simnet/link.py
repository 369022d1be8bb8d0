"""Access-link profiles.

Each host attaches to the network fabric through a link with an uplink
bandwidth (modeled by the NIC), a one-way propagation latency, random
latency variation, and an independent loss probability.  End-to-end path
latency is ``src.link.latency + fabric base latency + dst.link.latency``
plus sampled variation on each side.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkProfile:
    """Static characteristics of a host's access link.

    Attributes:
        bandwidth_bps: uplink serialization rate (bits/second).
        latency_s: one-way propagation latency contribution.
        jitter_s: max uniform random addition to latency per packet.
        loss_rate: independent per-packet drop probability in [0, 1).
    """

    bandwidth_bps: float = 100e6
    latency_s: float = 0.0002
    jitter_s: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency/jitter must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")


#: Typical profiles used throughout the examples and benchmarks.
LAN_100M = LinkProfile(bandwidth_bps=100e6, latency_s=0.0002, jitter_s=0.0001)
LAN_1G = LinkProfile(bandwidth_bps=1e9, latency_s=0.0001, jitter_s=0.00005)
CAMPUS = LinkProfile(bandwidth_bps=100e6, latency_s=0.002, jitter_s=0.0005)
WAN_US = LinkProfile(bandwidth_bps=45e6, latency_s=0.020, jitter_s=0.002)
WAN_TRANSPACIFIC = LinkProfile(
    bandwidth_bps=20e6, latency_s=0.090, jitter_s=0.008, loss_rate=0.002
)
DSL = LinkProfile(bandwidth_bps=1.5e6, latency_s=0.015, jitter_s=0.004, loss_rate=0.001)
