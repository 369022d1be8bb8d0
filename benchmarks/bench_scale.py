"""Scale ceiling: max sustained subscribers at a fixed SLO, flat vs clustered.

The cluster tier exists to push the broker collection past the flat
mesh's control-plane wall: in a flat autonomous mesh every subscription
change floods a SubAdvert to *every* broker, so the per-broker control
load grows with the whole collection's churn; with clusters the flood
stops at the cluster edge and gateways exchange prefix-collapsed
interest summaries that go quiet once a cluster's interest is wide.

This benchmark measures where each mode's wall is, in virtual time, on
the same 112-broker topology (sixteen fully-meshed clusters of seven on
a gateway ring).  The workload is *roaming subscribers*: N clients,
round-robin across all brokers, each re-homing its one subscription to
a fresh topic every ``CHURN_PERIOD_S`` (subscribe new, then unsubscribe
old — the membership churn of a global conference at scale).  A probe
media stream (publisher and subscriber in different clusters) runs
through the fabric the whole time.

A rung *passes* when an :class:`~repro.obs.slo.SloWatchdog` raises zero
alerts over the measurement window against three probes:

* probe media p99 delivery latency under ``SLO_P99_S``;
* no probe-media gap longer than ``SLO_GAP_S`` (stalls, not just slowness);
* control headroom: no broker spends more than ``SLO_CPU_FRACTION`` of
  its CPU, so the fabric keeps serving media while absorbing the churn.

Each mode climbs its subscriber ladder on one persistent fabric (clients
are added between rungs; topology convergence is paid once), and
*sustained* is the highest passing rung.  The ladders differ below the
summary-collapse point — ``INTEREST_SUMMARY_BUDGET × clusters``
subscribers — because clustered scaling is *non-monotonic* there: until
a cluster holds more patterns than the budget, summaries never collapse,
the overlay re-exports every churn op into every remote cluster, and
clustered mode costs more than flat.  The clustered ladder keeps one
rung in that dip (expect it to FAIL — the artifact records the valley
honestly) and then climbs geometrically through the collapse regime,
where flat has long since hit the CPU-headroom wall.  The headline —
``BENCH_scale.json`` — is sustained subscribers per mode and the
clustered/flat ratio, which the cluster tier must hold at >= 5x.

``quick`` climbs only the clustered ladder, on a smaller fabric.
"""

from repro.broker.client import BrokerClient
from repro.broker.network import BrokerNetwork
from repro.broker.spec import MeshTiming
from repro.obs.metrics import Histogram
from repro.obs.slo import SloWatchdog
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

SEED = 7

#: Sixteen clusters of seven: the 112-broker topology both modes share.
FULL_CLUSTERS = [7] * 16
QUICK_CLUSTERS = [4] * 6

#: One full roam (subscribe new topic, unsubscribe old) per period.
CHURN_PERIOD_S = 2.0

#: SLO targets: media latency, media stall, and control headroom.  The
#: headroom probe is the scale wall: brokers must keep >= 95% of their
#: CPU for media while absorbing the collection-wide churn.
SLO_P99_S = 0.050
SLO_GAP_S = 2.0
SLO_CPU_FRACTION = 0.05

#: Probe media stream (events/sec, bytes).
PROBE_RATE_HZ = 25
PROBE_BYTES = 800

TOPOLOGY_CONVERGE_S = 12.0
ADD_RAMP_S = 6.0
SETTLE_S = 4.0
MEASURE_S = 16.0

#: Flat floods are global, so flat scaling is monotone: climb x2 and
#: stop at the first failing rung.
FLAT_LADDER = (50, 100, 200, 400)
#: Clustered: one rung inside the no-collapse dip (100 — recorded for
#: honesty either way), then through the collapse regime (>= 256
#: subscribers puts every cluster past the 16-pattern budget) until the
#: intra-cluster flood itself hits the CPU-headroom wall.
CLUSTERED_LADDER = (100, 400, 800, 1600)
#: Quick slice sits entirely in the collapse regime of the small fabric
#: (> 16 patterns x 6 clusters = 96 subscribers), where the cluster
#: tier must hold the SLO easily; a regression (summary re-flood storm,
#: gateway routing breakage) drags the sustained rung under the floor.
QUICK_LADDER = (480, 960)

#: Floor on the clustered fabric's sustained subscribers: the first rung
#: of each ladder that lies in the summary-collapse regime.
SUSTAINED_FLOOR = 400
QUICK_SUSTAINED_FLOOR = 480
#: How many times flat's sustained subscribers clustered must hold.
MIN_CLUSTERED_OVER_FLAT = 5


class _CpuHeadroom:
    """Max per-broker CPU utilisation since the previous sample.

    ``Cpu.busy_time`` is cumulative; the watchdog calls :meth:`sample`
    once per check interval, so the gauge reads the *recent* utilisation
    of the busiest broker, not the lifetime average.
    """

    def __init__(self, sim, brokers):
        self.sim = sim
        self.brokers = brokers
        self._last_at = sim.now
        self._last_busy = {b.broker_id: b.host.cpu.busy_time for b in brokers}
        self.peak = 0.0

    def sample(self) -> float:
        now = self.sim.now
        window = now - self._last_at
        if window <= 0:
            return 0.0
        worst = 0.0
        for broker in self.brokers:
            busy = broker.host.cpu.busy_time
            worst = max(worst, (busy - self._last_busy[broker.broker_id]) / window)
            self._last_busy[broker.broker_id] = busy
        self._last_at = now
        self.peak = max(self.peak, worst)
        return worst


class _Roamer:
    """One roaming subscriber: re-homes its subscription every period."""

    def __init__(self, sim, client, cluster, index):
        self.sim = sim
        self.client = client
        self.prefix = f"/scale/{cluster}/r{index}"
        self.generation = 0
        self.client.subscribe(self._topic(), self._sink)
        self.sim.schedule(CHURN_PERIOD_S, self.roam)

    def _topic(self) -> str:
        return f"{self.prefix}/g{self.generation}"

    def _sink(self, event) -> None:
        pass

    def roam(self) -> None:
        old = self._topic()
        self.generation += 1
        self.client.subscribe(self._topic(), self._sink)
        self.client.unsubscribe(old)
        self.sim.schedule(CHURN_PERIOD_S, self.roam)


def build_fabric(mode, cluster_sizes, net):
    if mode == "clustered":
        return BrokerNetwork.clustered(net, cluster_sizes)
    return BrokerNetwork.hierarchical(net, cluster_sizes, mesh=MeshTiming())


class ModeLadder:
    """One persistent fabric climbing its subscriber ladder.

    Topology convergence is paid once; each rung adds the delta of
    roaming subscribers (staggered), lets the churn settle, then arms a
    fresh SLO watchdog over one measurement window.
    """

    def __init__(self, mode, cluster_sizes):
        self.mode = mode
        self.sim = Simulator()
        self.net = Network(self.sim, SeededStreams(SEED))
        self.fabric = build_fabric(mode, cluster_sizes, self.net)
        self.brokers = self.fabric.brokers()
        names = sorted(b.broker_id for b in self.brokers)
        self.latency = Histogram("probe_latency_s")
        self._last_delivery = [None]

        def on_probe(event):
            self.latency.observe(self.sim.now - event.payload)
            self._last_delivery[0] = self.sim.now

        self.probe_sub = BrokerClient(
            self.net.create_host("probe-sub"), client_id="probe-sub"
        )
        self.probe_sub.connect(self.fabric.broker(names[0]))
        self.probe_sub.subscribe("/probe/media", on_probe)
        self.probe_pub = BrokerClient(
            self.net.create_host("probe-pub"), client_id="probe-pub"
        )
        self.probe_pub.connect(self.fabric.broker(names[-1]))
        self.sim.schedule(1.0, self._publish_probe)
        self.roamers = []
        self.sim.run_for(TOPOLOGY_CONVERGE_S)

    def _publish_probe(self):
        self.probe_pub.publish("/probe/media", self.sim.now, PROBE_BYTES)
        self.sim.schedule(1.0 / PROBE_RATE_HZ, self._publish_probe)

    def _add_roamers(self, target):
        """Grow to ``target`` subscribers, staggered over the ramp."""
        add = target - len(self.roamers)
        for offset in range(add):
            index = len(self.roamers) + offset
            broker = self.brokers[index % len(self.brokers)]
            cluster = (
                self.fabric.cluster_of(broker.broker_id) or broker.broker_id
            )
            client = BrokerClient(
                self.net.create_host(f"roam-{index}"),
                client_id=f"roam-{index}",
            )
            client.connect(broker)
            self.sim.schedule(
                0.1 + (offset / max(add, 1)) * (ADD_RAMP_S - 0.5),
                lambda c=client, cl=cluster, i=index: self.roamers.append(
                    _Roamer(self.sim, c, cl, i)
                ),
            )
        self.sim.run_for(ADD_RAMP_S + SETTLE_S)

    def measure_rung(self, subscribers):
        self._add_roamers(subscribers)
        self.latency.counts = [0] * len(self.latency.counts)
        self.latency.count, self.latency.sum, self.latency.max = 0, 0.0, 0.0
        headroom = _CpuHeadroom(self.sim, self.brokers)
        watchdog = SloWatchdog(
            self.net.create_host(f"slo-{subscribers}"),
            self.fabric.broker(self.brokers[0].broker_id),
            check_interval_s=1.0,
            client_id=f"slo-{subscribers}",
        )
        watchdog.watch_quantile("probe-p99", self.latency, SLO_P99_S)
        watchdog.watch_media_gap(
            "probe-gap", lambda: self._last_delivery[0], SLO_GAP_S
        )
        watchdog.watch_gauge(
            "control-headroom", headroom.sample, SLO_CPU_FRACTION, kind="cpu"
        )
        routed_before = sum(b.events_routed for b in self.brokers)
        self.sim.run_for(MEASURE_S)
        routed = sum(b.events_routed for b in self.brokers) - routed_before
        rung = {
            "mode": self.mode,
            "subscribers": subscribers,
            "passed": watchdog.alerts_raised == 0,
            "alerts": watchdog.alerts_raised,
            "probes": watchdog.probe_status(),
            "probe_p99_s": round(self.latency.quantile(0.99), 4),
            "peak_cpu_fraction": round(headroom.peak, 4),
            "churn_ops_per_s": round(
                2 * len(self.roamers) / CHURN_PERIOD_S, 1
            ),
            "events_routed_per_s": round(routed / MEASURE_S, 1),
            "adverts_aggregated": sum(
                b.adverts_aggregated for b in self.brokers
            ),
            "cluster_lsas_scoped": sum(
                b.cluster_lsas_scoped for b in self.brokers
            ),
            "intercluster_hops": sum(
                b.intercluster_hops for b in self.brokers
            ),
        }
        watchdog.stop()
        return rung

    def close(self):
        self.fabric.close()


def run_ladder(mode, cluster_sizes, ladder, stop_after_failures):
    """Climb the ladder; sustained = highest passing rung.

    ``stop_after_failures``: flat scaling is monotone, so one failing
    rung ends the climb; clustered mode must survive its expected
    failure in the no-collapse dip, so it tolerates one.
    """
    climber = ModeLadder(mode, cluster_sizes)
    rungs = []
    sustained = 0
    consecutive_failures = 0
    for subscribers in ladder:
        rung = climber.measure_rung(subscribers)
        rungs.append(rung)
        if rung["passed"]:
            sustained = subscribers
            consecutive_failures = 0
        else:
            consecutive_failures += 1
            if consecutive_failures > stop_after_failures - 1:
                break
    climber.close()
    return {"rungs": rungs, "sustained_subscribers": sustained}


def scenario(quick):
    cluster_sizes = QUICK_CLUSTERS if quick else FULL_CLUSTERS
    floor = QUICK_SUSTAINED_FLOOR if quick else SUSTAINED_FLOOR
    results = {}
    if not quick:
        results["flat"] = run_ladder("flat", cluster_sizes, FLAT_LADDER, 1)
    results["clustered"] = run_ladder(
        "clustered", cluster_sizes,
        QUICK_LADDER if quick else CLUSTERED_LADDER, 1 if quick else 2,
    )
    clustered_max = results["clustered"]["sustained_subscribers"]
    results["clustered_sustained"] = clustered_max
    gates = {"clustered_sustains_floor": clustered_max >= floor}
    if not quick:
        flat_max = results["flat"]["sustained_subscribers"]
        ratio = round(clustered_max / flat_max, 2) if flat_max else float("inf")
        results["flat_sustained"] = flat_max
        results["clustered_over_flat"] = ratio
        gates["clustered_over_flat"] = ratio >= MIN_CLUSTERED_OVER_FLAT
    return {
        "params": {
            "brokers": sum(cluster_sizes),
            "clusters": len(cluster_sizes),
            "churn_period_s": CHURN_PERIOD_S,
            "slo": {
                "probe_p99_s": SLO_P99_S,
                "probe_gap_s": SLO_GAP_S,
                "cpu_fraction": SLO_CPU_FRACTION,
            },
            "sustained_floor": floor,
            "min_clustered_over_flat": MIN_CLUSTERED_OVER_FLAT,
        },
        "results": results,
        "gates": gates,
    }
