"""The five workloads, built from the system's public constructors only.

Every workload is an open loop in modeled time — sources emit on a
virtual-time schedule whatever the modeled backlog, and delay is timed
from the packet's creation stamp — and a fixed-size batch job in host
time.  A workload has a ``setup`` phase (build topology, connect,
subscribe, converge, settle) and a ``measure`` phase; the harness in
``perf.child`` times the two separately.

``scale`` multiplies the length of the measured phase (packets, modeled
seconds or join cycles), never the shape: receiver counts, fabric sizes
and churn rates stay as named, so the layer a workload stresses is the
same at every scale.  All inputs derive from ``seed``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.broker import Broker, BrokerClient, BrokerNetwork
from repro.obs import Histogram, SloWatchdog, TraceCollector, Tracer
from repro.rtp.media import AudioSource, VideoSource
from repro.rtp.packet import PayloadType
from repro.rtp.stats import ReceiverStats
from repro.simnet.kernel import Simulator
from repro.simnet.link import LinkProfile
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams


def sized(full: int, scale: float, minimum: int = 1) -> int:
    """``full`` scaled, never below ``minimum``."""
    return max(minimum, round(full * scale))


class StreamTap:
    """Delay and RFC 3550 jitter on one instrumented receiver: one
    :class:`ReceiverStats` per RTP stream it hears."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.streams: Dict[int, ReceiverStats] = {}

    def on_packet(self, packet) -> None:
        stats = self.streams.get(packet.ssrc)
        if stats is None:
            stats = self.streams[packet.ssrc] = ReceiverStats()
        stats.on_packet(packet, self.sim.now)


class Workload:
    """One fixed-size job: ``setup()``, then ``measure()``, then read
    :meth:`expectations`, :meth:`receiver_stats` and the counters."""

    name = ""
    #: Whether the fabric takes a :class:`Tracer` (the hop pass needs one).
    traceable = True
    #: Topic the hop pass summarizes (None: every traced topic).
    hop_topic: Optional[str] = None
    #: Relative clock-rate step between successive streams.
    CLOCK_SKEW = 0.005

    def __init__(self, seed: int, scale: float, tracer: Optional[Tracer] = None):
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.streams = SeededStreams(seed)
        self.rng = self.streams.stream(f"perf.{self.name}")
        self.sim = Simulator()
        self.net = Network(self.sim, self.streams)
        self.brokers: List[Broker] = []
        self.clients: List[BrokerClient] = []
        self.taps: List[StreamTap] = []
        self.collector: Optional[TraceCollector] = None
        #: Subscriber-callback invocations (all of them land in the
        #: measured phase: no source runs during setup).
        self.deliveries = 0
        self._streams_started = 0
        self.alerts_raised = 0
        self.join_latencies_s: List[float] = []
        self.joins_attempted = 0

    # -------------------------------------------------------- to override

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def sizes(self) -> Dict[str, float]:
        """The input sizes of this run, for the results file."""
        raise NotImplementedError

    def expectations(self) -> Dict[str, Tuple[int, int]]:
        """Output checks as ``name -> (observed, expected)``; the first
        entry's gap is what ``failed`` counts, every entry must match."""
        raise NotImplementedError

    # ------------------------------------------------------------ helpers

    def client(self, name: str, broker: Broker, **host_options) -> BrokerClient:
        """A broker client on its own host, connected to ``broker``."""
        client = BrokerClient(
            self.net.create_host(name, **host_options), client_id=name
        )
        client.connect(broker)
        self.clients.append(client)
        return client

    def tap(self) -> StreamTap:
        tap = StreamTap(self.sim)
        self.taps.append(tap)
        return tap

    def count(self, _event) -> None:
        """Subscriber callback of an uninstrumented receiver."""
        self.deliveries += 1

    def tapped(self, tap: StreamTap) -> Callable:
        """Subscriber callback of an instrumented receiver."""
        def on_event(event) -> None:
            self.deliveries += 1
            tap.on_packet(event.payload)

        return on_event

    def stream(
        self, publisher: BrokerClient, topic: str, packets: int,
        interval_s: float, payload_bytes: int, payload_type: PayloadType,
    ) -> None:
        """Start a constant-rate RTP stream of exactly ``packets`` packets
        on ``topic``.

        Senders' clocks are not synchronised: each stream starts at a
        seeded phase and runs ``CLOCK_SKEW`` slower than the one started
        before it, so streams precess through each other's phases within
        a run instead of colliding (or not) for all of it.
        """
        interval_s *= 1.0 + self.CLOCK_SKEW * self._streams_started
        self._streams_started += 1

        def send(packet) -> None:
            publisher.publish(topic, packet, packet.wire_size)
            if source.packets_sent == packets:
                source.stop()

        source = AudioSource(
            self.sim, send, packet_interval_s=interval_s,
            payload_bytes=payload_bytes, payload_type=payload_type,
        )
        self.sim.schedule(self.rng.uniform(0.0, interval_s), source.start)

    def collect_traces(self, broker: Broker) -> None:
        """Attach the hop pass's collector (only when tracing)."""
        if self.tracer is not None:
            self.collector = TraceCollector(
                self.net.create_host("trace-collector"), broker
            )

    def receiver_stats(self) -> List[ReceiverStats]:
        return [s for tap in self.taps for s in tap.streams.values()]


# ---------------------------------------------------------------- fig3


class Fig3Video(Workload):
    """The paper's Figure 3: one broker on a gigabit LAN, 400 receivers
    (12 co-located with the sender and instrumented), one 600 kbps
    GOP-structured video source."""

    name = "fig3_video"
    hop_topic = "/fig3/video"
    RECEIVERS = 400
    INSTRUMENTED = 12
    FULL_PACKETS = 1500
    #: The clip is content, not input noise: the delay percentiles of a
    #: few-GOP run swing by +-19 % with its frame sizes, so the frame-size
    #: sequence is fixed and the seed varies what the network does to it.
    CLIP_SEED = 17
    SETTLE_S = 8.0
    DRAIN_S = 5.0

    def sizes(self):
        return {
            "receivers": self.RECEIVERS,
            "packets": sized(self.FULL_PACKETS, self.scale),
        }

    def setup(self) -> None:
        lan = LinkProfile(bandwidth_bps=1e9, latency_s=0.00015, jitter_s=0.00008)
        machine = self.net.create_host
        sender_machine = machine("sender-machine", link=lan, recv_cpu_cost_s=18e-6)
        receiver_machine = machine(
            "receiver-machine", link=lan, recv_cpu_cost_s=18e-6
        )
        server_machine = machine("server-machine", link=lan, recv_cpu_cost_s=6e-6)
        broker = Broker(server_machine, broker_id="fig3-broker", tracer=self.tracer)
        self.brokers = [broker]
        self.collect_traces(broker)
        # The instrumented receivers are spread evenly through the index
        # space so fan-out position does not bias them.
        step = self.RECEIVERS / self.INSTRUMENTED
        instrumented = {int(i * step) for i in range(self.INSTRUMENTED)}
        for index in range(self.RECEIVERS):
            colocated = index in instrumented
            receiver = BrokerClient(
                sender_machine if colocated else receiver_machine,
                client_id=f"recv-{index:03d}",
            )
            receiver.connect(broker)
            receiver.subscribe(
                self.hop_topic,
                self.tapped(self.tap()) if colocated else self.count,
            )
            self.clients.append(receiver)
        self.sender = BrokerClient(
            sender_machine, client_id="video-sender", publish_cpu_cost_s=12e-6
        )
        self.sender.connect(broker)
        self.clients.append(self.sender)
        self.sim.run_for(self.SETTLE_S)

    def measure(self) -> None:
        packets = self.sizes()["packets"]
        sender, topic = self.sender, self.hop_topic

        def send(packet) -> None:
            # The source finishes the frame it is in; packets past the
            # fixed count are not published.
            if sender.events_published < packets:
                sender.publish(topic, packet, packet.wire_size)
            else:
                source.stop()

        source = VideoSource(
            self.sim, send, bitrate_bps=600_000.0, fps=30.0, gop=30,
            i_frame_ratio=6.0, mtu_payload=1250, rng=random.Random(self.CLIP_SEED),
        )
        source.start()
        while source.running:
            self.sim.run_for(1.0)
        self.sim.run_for(self.DRAIN_S)

    def expectations(self):
        packets = self.sizes()["packets"]
        heard = sum(s.packet_count for s in self.receiver_stats())
        return {
            "deliveries": (self.deliveries, packets * self.RECEIVERS),
            "instrumented_deliveries": (heard, packets * self.INSTRUMENTED),
        }


# ---------------------------------------------------------- mesh relay


class MeshRelay(Workload):
    """64 brokers in eight meshed clusters on a gateway ring, one
    subscriber per broker, four publishers each sending a 172-byte
    audio-class and a 1000-byte video-class stream at 50 pps."""

    name = "mesh_relay"
    CLUSTERS = [8] * 8
    #: (cluster, member) homes of the four publishers: non-gateway
    #: members, so every event crosses several broker hops.
    PUBLISHER_HOMES = ((0, 5), (2, 6), (4, 7), (6, 4))
    #: Member indices of the instrumented subscribers in each cluster.
    INSTRUMENTED_MEMBERS = (3,)
    FULL_PACKETS_PER_STREAM = 300
    PACKET_INTERVAL_S = 0.020
    SETTLE_S = 2.0
    DRAIN_S = 2.0

    def sizes(self):
        return {
            "brokers": sum(self.CLUSTERS),
            "publishers": len(self.PUBLISHER_HOMES),
            "packets_per_stream": sized(self.FULL_PACKETS_PER_STREAM, self.scale),
        }

    def setup(self) -> None:
        fabric = BrokerNetwork.hierarchical(
            self.net, self.CLUSTERS, tracer=self.tracer
        )
        self.brokers = fabric.brokers()
        self.collect_traces(self.brokers[0])
        for cluster, size in enumerate(self.CLUSTERS):
            for member in range(size):
                name = f"sub-c{cluster}-{member}"
                subscriber = self.client(
                    name, fabric.broker(f"broker-c{cluster}-{member}")
                )
                subscriber.subscribe(
                    "/mesh/#",
                    self.tapped(self.tap())
                    if member in self.INSTRUMENTED_MEMBERS
                    else self.count,
                )
        self.publishers = [
            self.client(
                f"pub-{index}", fabric.broker(f"broker-c{cluster}-{member}")
            )
            for index, (cluster, member) in enumerate(self.PUBLISHER_HOMES)
        ]
        self.sim.run_for(self.SETTLE_S)

    def measure(self) -> None:
        packets = self.sizes()["packets_per_stream"]
        interval = self.PACKET_INTERVAL_S
        for index, publisher in enumerate(self.publishers):
            self.stream(
                publisher, f"/mesh/p{index}/audio", packets, interval,
                160, PayloadType.PCMU,
            )
            self.stream(
                publisher, f"/mesh/p{index}/video", packets, interval,
                988, PayloadType.H261,
            )
        self.sim.run_for((packets + 1) * interval + self.DRAIN_S)

    def expectations(self):
        publishes = 2 * len(self.publishers) * self.sizes()["packets_per_stream"]
        heard = sum(s.packet_count for s in self.receiver_stats())
        return {
            "deliveries": (self.deliveries, publishes * sum(self.CLUSTERS)),
            "instrumented_deliveries": (
                heard,
                publishes * len(self.CLUSTERS) * len(self.INSTRUMENTED_MEMBERS),
            ),
            "publishes": (
                sum(p.events_published for p in self.publishers), publishes
            ),
        }


# ------------------------------------------------------- roaming churn


class _Roamer:
    """One roaming subscriber: re-homes its one subscription to a fresh
    topic every period (subscribe new, then unsubscribe old)."""

    __slots__ = ("workload", "client", "prefix", "generation", "verified")

    def __init__(self, workload: "RoamingChurn", client: BrokerClient, prefix: str):
        self.workload = workload
        self.client = client
        self.prefix = prefix
        self.generation = 0
        self.verified = 0
        client.subscribe(self.topic(), self.on_verification)

    def topic(self) -> str:
        return f"{self.prefix}/g{self.generation}"

    def roam(self) -> None:
        workload = self.workload
        if workload.sim.now >= workload.roam_until:
            return
        old = self.topic()
        self.generation += 1
        self.client.subscribe(self.topic(), self.on_verification)
        self.client.unsubscribe(old)
        workload.roams += 1
        workload.sim.schedule(workload.VERIFY_DELAY_S, workload.verify, self)
        workload.sim.schedule(workload.CHURN_PERIOD_S, self.roam)

    def on_verification(self, event) -> None:
        self.workload.deliveries += 1
        if event.payload == self.generation:
            self.verified += 1


class RoamingChurn(Workload):
    """24 brokers in six clusters with the cluster tier on; 480 roaming
    subscribers each re-homing every 2 s, a 25 Hz probe stream out of
    every cluster heard in every cluster, and one verification publish
    to each roamer's new topic 0.5 s after it subscribes."""

    name = "roaming_churn"
    hop_topic = "/probe/media"
    CLUSTERS = [4] * 6
    ROAMERS = 480
    CHURN_PERIOD_S = 2.0
    VERIFY_DELAY_S = 0.5
    PROBE_INTERVAL_S = 0.040
    PROBE_PAYLOAD_BYTES = 788
    #: Member indices (non-gateways) of each cluster's probe subscriber
    #: and probe publisher.
    PROBE_SUBSCRIBER_MEMBER = 2
    PROBE_PUBLISHER_MEMBER = 3
    FULL_DURATION_S = 30.0
    CONVERGE_S = 12.0
    SETTLE_S = 4.0
    DRAIN_S = 1.5

    def sizes(self):
        return {
            "brokers": sum(self.CLUSTERS),
            "roamers": self.ROAMERS,
            "churn_period_s": self.CHURN_PERIOD_S,
            "duration_s": self.duration_s(),
        }

    def duration_s(self) -> float:
        # Whole churn periods, so every roamer roams equally often.
        periods = sized(round(self.FULL_DURATION_S / self.CHURN_PERIOD_S), self.scale)
        return periods * self.CHURN_PERIOD_S

    def setup(self) -> None:
        fabric = self.fabric = BrokerNetwork.clustered(
            self.net, self.CLUSTERS, tracer=self.tracer
        )
        self.brokers = fabric.brokers()
        self.collect_traces(self.brokers[0])
        self.sim.run_for(self.CONVERGE_S)
        self.probe_publishers = []
        for cluster in range(len(self.CLUSTERS)):
            subscriber = self.client(
                f"probe-sub-c{cluster}",
                fabric.broker(f"broker-c{cluster}-{self.PROBE_SUBSCRIBER_MEMBER}"),
            )
            subscriber.subscribe(self.hop_topic, self.on_probe(self.tap()))
            self.probe_publishers.append(self.client(
                f"probe-pub-c{cluster}",
                fabric.broker(f"broker-c{cluster}-{self.PROBE_PUBLISHER_MEMBER}"),
            ))
        self.verifier = self.client("verifier", self.brokers[0])
        self.roamers = []
        for index in range(self.ROAMERS):
            broker = self.brokers[index % len(self.brokers)]
            client = self.client(f"roam-{index}", broker)
            cluster = fabric.cluster_of(broker.broker_id)
            self.roamers.append(
                _Roamer(self, client, f"/roam/{cluster}/r{index}")
            )
        self.roams = 0
        self.verifications_sent = 0
        self.roam_until = 0.0
        self.attach_observers()
        self.sim.run_for(self.SETTLE_S)

    def attach_observers(self) -> None:
        """Hook for :class:`ObservedFabric`; bare fabrics run unobserved."""

    def on_probe(self, tap: StreamTap) -> Callable:
        return self.tapped(tap)

    def verify(self, roamer: _Roamer) -> None:
        self.verifications_sent += 1
        self.verifier.publish(roamer.topic(), roamer.generation, 200)

    def measure(self) -> None:
        duration = self.duration_s()
        self.roam_until = self.sim.now + duration
        for roamer in self.roamers:
            self.sim.schedule(
                self.rng.uniform(0.0, self.CHURN_PERIOD_S), roamer.roam
            )
        per_stream = round(duration / self.PROBE_INTERVAL_S)
        for publisher in self.probe_publishers:
            self.stream(
                publisher, self.hop_topic, per_stream, self.PROBE_INTERVAL_S,
                self.PROBE_PAYLOAD_BYTES, PayloadType.H261,
            )
        # Every cluster's subscriber hears every cluster's publisher.
        self.probe_deliveries = per_stream * len(self.CLUSTERS) ** 2
        self.sim.run_for(duration + self.PROBE_INTERVAL_S + self.DRAIN_S)

    def expectations(self):
        heard = sum(s.packet_count for s in self.receiver_stats())
        verified = sum(r.verified for r in self.roamers)
        periods = round(self.duration_s() / self.CHURN_PERIOD_S)
        return {
            "deliveries": (self.deliveries, self.probe_deliveries + self.roams),
            "probe_deliveries": (heard, self.probe_deliveries),
            "verifications": (verified, self.verifications_sent),
            "roams": (self.roams, self.ROAMERS * periods),
        }


class ObservedFabric(RoamingChurn):
    """The ``roaming_churn`` fabric and inputs at half the churn rate,
    operated as a deployment would be: a fabric-wide 1 % tracer with its
    collector, the telemetry plane, and an SLO watchdog on the probe."""

    name = "observed_fabric"
    CHURN_PERIOD_S = 4.0
    TRACE_SAMPLE_RATE = 0.01
    SLO_P99_S = 0.050
    SLO_GAP_S = 2.0

    def __init__(self, seed: int, scale: float, tracer: Optional[Tracer] = None):
        # The hop pass brings its own, denser tracer.
        super().__init__(seed, scale, tracer or Tracer(self.TRACE_SAMPLE_RATE))

    def setup(self) -> None:
        self.probe_latency = Histogram("probe_latency_s")
        self.last_probe_at: Optional[float] = None
        super().setup()

    def attach_observers(self) -> None:
        # Armed before the probe starts: both probes stay silent until
        # they have samples, so the settle raises no alert.
        self.telemetry = self.fabric.attach_telemetry()
        self.telemetry.start()
        self.watchdog = SloWatchdog(
            self.net.create_host("slo-watchdog"), self.brokers[0],
            check_interval_s=1.0,
        )
        self.watchdog.watch_quantile("probe-p99", self.probe_latency, self.SLO_P99_S)
        self.watchdog.watch_media_gap(
            "probe-gap", lambda: self.last_probe_at, self.SLO_GAP_S
        )

    def on_probe(self, tap: StreamTap) -> Callable:
        def on_event(event) -> None:
            self.deliveries += 1
            packet = event.payload
            tap.on_packet(packet)
            now = self.sim.now
            self.probe_latency.observe(now - packet.wallclock_sent)
            self.last_probe_at = now

        return on_event

    def measure(self) -> None:
        super().measure()
        self.alerts_raised = self.watchdog.alerts_raised
