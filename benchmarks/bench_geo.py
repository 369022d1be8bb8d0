"""Geo federation gate: WAN p99, partition survival, exactly-once heal.

The geo town-hall: one continent publishes, 80% of the audience listens
from two others.  Three regions (us / eu / ap) of flat-mesh brokers are
joined by a handful of transoceanic links with realistic configured
latency and loss; every broker runs in geo mode (cost-weighted routing,
sequencer pinning, minority parking — DESIGN.md §12).

Three legs, every one a hard gate:

* **Steady**: cross-region media p99 must fit the WAN budget — the
  cost-weighted routes keep traffic on the configured paths, so the p99
  is the transoceanic latency plus fabric slack, not a detour.
* **Partition**: the publisher's continent is cut off for 10 s.  Each
  region's *local* media stream must keep flowing (max gap ≤ 1.5 s) —
  an isolated region stays a working conference.  Ordered+reliable
  control ops published straight through the cut must reach every
  continent exactly once after the heal: zero lost, zero duplicated.
* **Inert switch**: the same seeded workload with ``regions=None`` must
  be bit-identical to one that never mentions regions — the whole geo
  plane is strictly opt-in.

A floor on control ops published through the cut keeps the exactly-once
gate non-vacuous.  ``quick`` runs a smaller fabric with shorter legs.
"""

from repro.broker.client import BrokerClient
from repro.broker.network import BrokerNetwork
from repro.broker.spec import FAST_MESH, FabricSpec
from repro.obs.metrics import Histogram
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

SEED = 11

REGIONS = ("us", "eu", "ap")

#: Configured transoceanic latency / loss per region pair.
REGION_LINKS = {
    ("us", "eu"): (0.045, 0.001),
    ("us", "ap"): (0.090, 0.002),
    ("eu", "ap"): (0.080, 0.002),
}

#: Town-hall audience split: publisher continent keeps 20%.
SUB_SPLIT = {"us": 2, "eu": 4, "ap": 4}
QUICK_SUB_SPLIT = {"us": 1, "eu": 2, "ap": 2}

MEDIA_HZ = 25
MEDIA_BYTES = 800
LOCAL_HZ = 10
CONTROL_HZ = 5

#: Gates.  The p99 budget is the worst configured one-way (us↔ap 90 ms)
#: plus fabric/jitter slack; the gap budget is the ISSUE's 1.5 s.
CROSS_P99_BUDGET_S = 0.250
INTRA_GAP_BUDGET_S = 1.5

CONVERGE_S = 6.0
ATTACH_S = 2.0
STEADY_S = 15.0
PARTITION_S = 10.0
DRAIN_S = 8.0

QUICK_STEADY_S = 6.0
QUICK_PARTITION_S = 5.0
QUICK_DRAIN_S = 6.0

#: Floor on reliable control ops published through cut + heal.
CONTROL_OPS_FLOOR = 100
QUICK_CONTROL_OPS_FLOOR = 40


def build_mesh(net, per_region):
    """Flat geo mesh: a ring per region plus two links per region pair."""
    regions = {
        r: [f"{r}{i}" for i in range(per_region)] for r in REGIONS
    }
    bnet = BrokerNetwork(net, FabricSpec(mesh=FAST_MESH, regions=regions))
    for members in regions.values():
        for name in members:
            bnet.add_broker(name)
    for members in regions.values():
        for i, name in enumerate(members):
            if len(members) > 1:
                bnet.connect(name, members[(i + 1) % len(members)])
    for (a, b), (latency_s, loss) in REGION_LINKS.items():
        net.set_region_latency(a, b, latency_s, loss_rate=loss)
        for i in range(min(2, per_region)):
            bnet.connect(f"{a}{i}", f"{b}{i}")
    return bnet


class TownHall:
    """The full geo workload on one seeded fabric."""

    def __init__(self, per_region, sub_split, steady_s, partition_s, drain_s):
        self.sim = Simulator()
        self.net = Network(self.sim, SeededStreams(SEED))
        self.bnet = build_mesh(self.net, per_region)
        self.steady_s = steady_s
        self.partition_s = partition_s
        self.drain_s = drain_s
        self.sim.run_for(CONVERGE_S)

        # Cross-region media: publisher in us, audience split 20/40/40.
        self.media_latency = {r: Histogram(f"media_{r}") for r in REGIONS}
        self.steady_window = [0.0, 0.0]
        self.media_pub = self._client("town-pub", "us0")
        index = 0
        for region, count in sub_split.items():
            for n in range(count):
                broker = f"{region}{(n + 1) % per_region}"
                sub = self._client(f"town-sub-{index}", broker)
                sub.subscribe("/town/media", self._media_sink(region))
                index += 1

        # Per-region local media: one pub/sub pair inside each region.
        self.local_deliveries = {r: [] for r in REGIONS}
        self.local_pubs = {}
        for region in REGIONS:
            sub = self._client(f"local-sub-{region}", f"{region}0")
            sub.subscribe(
                f"/local/{region}/media", self._local_sink(region)
            )
            self.local_pubs[region] = self._client(
                f"local-pub-{region}", f"{region}{per_region - 1}"
            )

        # Control ops: ordered+reliable from us, counted per continent.
        self.control_seen = {r: [] for r in REGIONS}
        self.control_pub = self._client("ctrl-pub", "us0")
        for region in REGIONS:
            sub = self._client(f"ctrl-sub-{region}", f"{region}0")
            sub.subscribe("/town/control", self._control_sink(region))
        self.control_published = 0
        self.sim.run_for(ATTACH_S)

    def _client(self, name, broker):
        client = BrokerClient(self.net.create_host(name), client_id=name)
        client.connect(self.bnet.broker(broker))
        return client

    def _media_sink(self, region):
        def sink(event):
            start, end = self.steady_window
            if start <= self.sim.now <= end:
                self.media_latency[region].observe(
                    self.sim.now - event.payload
                )
        return sink

    def _local_sink(self, region):
        return lambda event: self.local_deliveries[region].append(self.sim.now)

    def _control_sink(self, region):
        return lambda event: self.control_seen[region].append(event.payload)

    def _schedule_streams(self, start, end):
        at = start
        while at < end:
            self.sim.schedule_at(
                at, lambda: self.media_pub.publish(
                    "/town/media", self.sim.now, MEDIA_BYTES
                )
            )
            at += 1.0 / MEDIA_HZ
        for region in REGIONS:
            at = start
            while at < end:
                self.sim.schedule_at(
                    at, lambda r=region: self.local_pubs[r].publish(
                        f"/local/{r}/media", self.sim.now, MEDIA_BYTES
                    )
                )
                at += 1.0 / LOCAL_HZ

    def _publish_control(self):
        self.control_pub.publish(
            "/town/control", self.control_published, 300,
            reliable=True, ordered=True,
        )
        self.control_published += 1

    def run(self):
        now = self.sim.now
        cut_at = now + self.steady_s
        heal_at = cut_at + self.partition_s
        end = heal_at + self.drain_s
        self.steady_window = [now + 1.0, cut_at]
        self._schedule_streams(now, end)
        at = now
        while at < heal_at + 2.0:  # control keeps flowing through the cut
            self.sim.schedule_at(at, self._publish_control)
            at += 1.0 / CONTROL_HZ
        self.sim.schedule_at(cut_at, self.bnet.partition_regions, "us")
        self.sim.schedule_at(heal_at, self.bnet.heal)
        self.sim.run(until=end)
        return self.report(cut_at, heal_at)

    def _max_local_gap(self, region, cut_at, heal_at):
        points = [cut_at]
        points += [
            t for t in self.local_deliveries[region] if cut_at <= t <= heal_at
        ]
        points.append(heal_at)
        return max(b - a for a, b in zip(points, points[1:]))

    def report(self, cut_at, heal_at):
        brokers = self.bnet.brokers()
        expected = list(range(self.control_published))
        control = {}
        for region in REGIONS:
            seen = self.control_seen[region]
            control[region] = {
                "delivered": len(seen),
                "lost": self.control_published - len(set(seen)),
                "duplicated": len(seen) - len(set(seen)),
                "exactly_once": sorted(seen) == expected,
            }
        gaps = {
            region: round(self._max_local_gap(region, cut_at, heal_at), 3)
            for region in REGIONS
        }
        return {
            "brokers": len(brokers),
            "regions": {
                region: len(self.net.region_hosts(region))
                for region in REGIONS
            },
            "steady": {
                "window_s": self.steady_s,
                "cross_region_p99_ms": {
                    region: round(
                        self.media_latency[region].quantile(0.99) * 1000, 2
                    )
                    for region in REGIONS
                },
                "media_samples": {
                    region: self.media_latency[region].count
                    for region in REGIONS
                },
                "p99_budget_ms": CROSS_P99_BUDGET_S * 1000,
            },
            "partition": {
                "duration_s": self.partition_s,
                "max_local_media_gap_s": gaps,
                "gap_budget_s": INTRA_GAP_BUDGET_S,
                "control_ops_published": self.control_published,
                "control": control,
            },
            "counters": {
                name: sum(b.statistics()[name] for b in brokers)
                for name in (
                    "cost_reoriginations", "sequencer_pins_set",
                    "ordered_parked", "ordered_park_drained",
                    "wan_parked", "wan_park_drained",
                    "ordered_park_drops", "wan_park_drops",
                )
            },
        }

    def close(self):
        self.bnet.close()


def regions_disabled_trace(explicit_none):
    """A small seeded workload; ``regions=None`` vs never mentioning
    regions must produce the same trace to the bit."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    options = {"regions": None} if explicit_none else {}
    bnet = BrokerNetwork.ring(net, 4, mesh=FAST_MESH, **options)
    trace = []
    sub = BrokerClient(net.create_host("sub"), client_id="sub")
    sub.connect(bnet.broker("broker-0"))
    sub.subscribe("/t/#", lambda e: trace.append((e.sequence, e.topic, sim.now)))
    pub = BrokerClient(net.create_host("pub"), client_id="pub")
    pub.connect(bnet.broker("broker-2"))
    sim.run(until=3.0)
    for index in range(30):
        sim.schedule_at(
            3.0 + index * 0.02, pub.publish, "/t/x", index, 200,
            False, (index % 3 == 0),
        )
    sim.run(until=5.0)
    bnet.close()
    return trace


def scenario(quick):
    if quick:
        town = TownHall(
            per_region=2, sub_split=QUICK_SUB_SPLIT,
            steady_s=QUICK_STEADY_S, partition_s=QUICK_PARTITION_S,
            drain_s=QUICK_DRAIN_S,
        )
    else:
        town = TownHall(
            per_region=4, sub_split=SUB_SPLIT,
            steady_s=STEADY_S, partition_s=PARTITION_S, drain_s=DRAIN_S,
        )
    report = town.run()
    town.close()
    floor = QUICK_CONTROL_OPS_FLOOR if quick else CONTROL_OPS_FLOOR
    partition = report["partition"]
    worst_p99_ms = max(
        ms for region, ms in report["steady"]["cross_region_p99_ms"].items()
        if region != "us"
    )
    worst_gap_s = max(partition["max_local_media_gap_s"].values())
    report.update(
        worst_cross_region_p99_ms=worst_p99_ms,
        worst_local_media_gap_s=worst_gap_s,
    )
    return {
        "params": {
            "regions": list(REGIONS),
            "sub_split": QUICK_SUB_SPLIT if quick else SUB_SPLIT,
            "p99_budget_ms": CROSS_P99_BUDGET_S * 1000,
            "gap_budget_s": INTRA_GAP_BUDGET_S,
            "control_ops_floor": floor,
        },
        "results": report,
        "gates": {
            "cross_region_p99": worst_p99_ms <= CROSS_P99_BUDGET_S * 1000,
            "intra_region_media_gap": worst_gap_s <= INTRA_GAP_BUDGET_S,
            "control_exactly_once": all(
                row["exactly_once"] for row in partition["control"].values()
            ),
            "control_ops_floor": partition["control_ops_published"] >= floor,
            "regions_none_bit_identical":
                regions_disabled_trace(True) == regions_disabled_trace(False),
        },
    }
