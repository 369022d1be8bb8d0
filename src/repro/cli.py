"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``fig3 [--system narada|jmf|both] [--packets N] [--seed N]`` —
  run the Figure 3 experiment and print the paper-style table.
* ``capacity --media video|audio [--points 100,200,...]`` —
  run a broker-capacity sweep.
* ``demo`` — run the heterogeneous-conference smoke scenario.
* ``trace-demo`` — stream media across a 5-broker mesh, crash a transit
  broker, and print the sampled-trace forensics: hop-by-hop delay
  attribution, the reroute, and the SLO alert the outage raised.
* ``fleet-health [--clusters N --size M --duration S]`` — build a small
  clustered fabric with the hierarchical telemetry plane attached, run
  a conference workload with a late load ramp on one cluster, and print
  the fleet/cluster/broker health report (states, hot brokers, SLO
  budget burn, capacity headroom) from the O(clusters) fleet console.
* ``info`` — print the system inventory and calibration constants.
* ``profile [--packets N] [--sort tottime|cumulative] [--limit N]`` —
  run the Figure-3 workload under cProfile and print the hottest
  frames: the profile-first entry point of the raw-speed work (attack
  the top frames, re-run, repeat).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.bench.figure3 import Fig3Config, run_figure3
    from repro.bench.reporting import figure3_table

    config = Fig3Config(packets=args.packets, seed=args.seed)
    systems = ["narada", "jmf"] if args.system == "both" else [args.system]
    results = {}
    for system in systems:
        print(f"running figure-3 workload for {system} "
              f"({config.receivers} receivers, {config.packets} packets)...")
        results[system] = run_figure3(system, config)
        print("  " + results[system].summary_row())
    if len(results) == 2:
        print(figure3_table(results["narada"], results["jmf"]))
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.bench.capacity import (
        CapacityConfig,
        run_capacity_sweep,
        supported_clients,
    )
    from repro.bench.reporting import capacity_table

    if args.points:
        points = [int(p) for p in args.points.split(",")]
    else:
        points = ([100, 200, 300, 400, 500] if args.media == "video"
                  else [400, 700, 1000, 1200])
    config = CapacityConfig(media=args.media, duration_s=args.duration,
                            seed=args.seed)
    print(f"sweeping {args.media} capacity at {points} clients...")
    results = run_capacity_sweep(points, config)
    claim = ("more than 400" if args.media == "video"
             else "more than a thousand")
    print(capacity_table(args.media, results, claim))
    print(f"supported with good quality: {supported_clients(results)} clients")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """A compact heterogeneous-conference smoke scenario."""
    from repro.core.mmcs import GlobalMMCS, MMCSConfig
    from repro.core.xgsp.translation import conference_alias

    mmcs = GlobalMMCS(MMCSConfig(seed=7))
    mmcs.start()
    session = mmcs.create_session("demo")
    print(f"created {session.session_id}")
    terminal = mmcs.create_h323_terminal("demo-terminal")
    mmcs.run_for(2.0)
    connected = []
    terminal.call(conference_alias(session.session_id),
                  on_connected=connected.append)
    mmcs.run_for(4.0)
    roster = mmcs.session_server.session(session.session_id).roster
    print(f"roster: {roster.participants()}")
    if not connected:
        print("demo FAILED: H.323 call did not connect")
        return 1
    print("demo OK")
    return 0


def _cmd_trace_demo(args: argparse.Namespace) -> int:
    """Observability walk-through: trace a stream, crash a broker,
    explain the gap from the collected traces."""
    from repro.broker import FAST_MESH, BrokerClient, BrokerNetwork
    from repro.obs.collector import TraceCollector
    from repro.obs.slo import AlertLog, SloWatchdog
    from repro.obs.trace import Tracer
    from repro.simnet import Network, SeededStreams, Simulator

    topic = "/demo/session-0/video"
    sim = Simulator()
    net = Network(sim, SeededStreams(args.seed))
    bnet = BrokerNetwork.ring(
        net, 5, mesh=FAST_MESH, tracer=Tracer(args.sample_rate)
    )
    sim.run_for(2.0)
    publisher = BrokerClient(net.create_host("pub-host"), client_id="pub")
    publisher.connect(bnet.broker("broker-0"))
    subscriber = BrokerClient(net.create_host("sub-host"), client_id="sub")
    subscriber.connect(bnet.broker("broker-3"))
    arrivals: List[float] = []
    subscriber.subscribe(topic, lambda event: arrivals.append(sim.now))

    ops = net.create_host("ops-host")
    collector = TraceCollector(ops, bnet.broker("broker-0"))
    alert_log = AlertLog(ops, bnet.broker("broker-0"))
    watchdog = SloWatchdog(ops, bnet.broker("broker-0"),
                           check_interval_s=0.25)
    watchdog.watch_media_gap(
        "media-gap/sub", lambda: arrivals[-1] if arrivals else None,
        budget_s=0.3,
    )
    sim.run_for(0.5)

    def publish_tick(i=[0]):
        publisher.publish(topic, i[0], 500)
        i[0] += 1
        sim.schedule(0.02, publish_tick)  # 50 pps

    print(f"streaming {topic} at 50 pps, broker-0 -> broker-3, "
          f"{args.sample_rate:.0%} trace sampling...")
    publish_tick()
    sim.run_for(2.0)

    traces = collector.for_topic(topic, delivered_by="broker-3")
    if not traces:
        print("no traces collected (sample rate too low?)")
        return 1
    trace = traces[-1]
    print(f"\none sampled trace (#{trace.trace_id}), "
          f"end-to-end {trace.total_s * 1000:.2f} ms:")
    print(f"  {'node':<12} {'arrive':>8} {'depart':>8} "
          f"{'cpu us':>8} {'queue us':>9}  link")
    for hop in trace.hops:
        departed = f"{hop.departed_at:.4f}" if hop.departed_at else "-"
        print(f"  {hop.node:<12} {hop.arrived_at:>8.4f} {departed:>8} "
              f"{hop.cpu_s * 1e6:>8.1f} {hop.queue_wait_s * 1e6:>9.1f}"
              f"  {hop.link}")
    attribution = trace.attribution()
    print(f"  attribution: cpu {attribution['cpu_s'] * 1000:.3f} ms, "
          f"queue {attribution['queue_s'] * 1000:.3f} ms, "
          f"link {attribution['link_s'] * 1000:.3f} ms")

    crash_at = sim.now
    print(f"\ncrashing broker-4 (the transit hop) at t={crash_at:.2f}s...")
    bnet.crash_broker("broker-4")
    sim.run_for(4.0)

    forensics = collector.attribute_gap(
        topic, crash_at, crash_at + 0.1, delivered_by="broker-3"
    )
    if forensics["explained"]:
        print(f"media gap explained by the trace paths:")
        print(f"  before: {' -> '.join(forensics['before_path'])}")
        print(f"  after:  {' -> '.join(forensics['after_path'])}")
        print(f"  lost hop(s): {', '.join(forensics['lost_hops'])}")
    for alert in alert_log.alerts:
        print(f"alert [{alert.name}] at t={alert.at:.2f}s: "
              f"{alert.kind} {alert.value:.2f} > budget {alert.target}")
    ok = (forensics.get("lost_hops") == ("broker-4",)
          and bool(alert_log.alerts))
    print("trace-demo OK" if ok else "trace-demo FAILED")
    return 0 if ok else 1


def _cmd_fleet_health(args: argparse.Namespace) -> int:
    """Demonstrate the hierarchical telemetry plane end to end."""
    from repro.broker import BrokerClient, BrokerNetwork
    from repro.obs.report import build_report, render_report
    from repro.simnet import Network, SeededStreams, Simulator

    sim = Simulator()
    net = Network(sim, SeededStreams(args.seed))
    cluster_sizes = [args.size] * args.clusters
    region_names = [r for r in (args.regions or "").split(",") if r]
    fabric = BrokerNetwork.clustered(
        net, cluster_sizes, regions=region_names or None
    )
    if region_names:
        # Representative WAN properties between every region pair (the
        # paper's US↔China shape): 60 ms / 0.1% loss.
        distinct = sorted(set(region_names))
        for i, region_a in enumerate(distinct):
            for region_b in distinct[i + 1:]:
                net.set_region_latency(region_a, region_b, 0.060, 0.001)
    plane = fabric.attach_telemetry(sample_interval_s=1.0)
    plane.start()
    names = sorted(b.broker_id for b in fabric.brokers())
    print(f"clustered fabric: {len(names)} brokers in {args.clusters} "
          f"clusters, telemetry plane attached "
          f"({len(plane.monitors)} monitors, "
          f"{len(plane.aggregators)} gateway aggregators)")
    sim.run(until=20.0)  # topology + overlay convergence

    listeners = []
    for index in range(8):
        client = BrokerClient(net.create_host(f"listener-{index}"),
                              client_id=f"listener-{index}")
        client.connect(fabric.broker(names[index % len(names)]))
        client.subscribe("/conf/main/#", lambda event: None)
        listeners.append(client)
    publisher = BrokerClient(net.create_host("av-pub"), client_id="av-pub")
    publisher.connect(fabric.broker(names[-1]))

    def steady(topic, rate_hz, size):
        def tick():
            publisher.publish(topic, sim.now, size)
            sim.schedule(1.0 / rate_hz, tick)
        return tick

    sim.schedule(0.0, steady("/conf/main/audio", 50, 200))
    sim.schedule(0.0, steady("/conf/main/video", 25, 1200))
    # A late ramp on the hot broker, so the report has something to show.
    ramp_pub = BrokerClient(net.create_host("ramp-pub"), client_id="ramp-pub")
    ramp_pub.connect(fabric.broker(names[0]))

    def ramp(step=[0]):
        step[0] += 1
        for _ in range(step[0]):
            ramp_pub.publish("/conf/main/video", sim.now, 1200)
        if sim.now < 20.0 + args.duration:
            sim.schedule(0.25, ramp)

    sim.schedule_at(20.0 + args.duration * 0.6, ramp)
    sim.run(until=20.0 + args.duration + 2.0)

    report_kwargs = {}
    if region_names:
        from repro.obs.report import region_link_health

        report_kwargs["regions"] = {
            f"c{c}": region_names[c % len(region_names)]
            for c in range(args.clusters)
        }
        report_kwargs["region_links"] = region_link_health(net)
    report = build_report(
        plane.fleet, slo_p99_s=args.slo_p99_ms / 1000.0, **report_kwargs
    )
    print()
    print(render_report(report))
    print()
    print(f"console ingress: {plane.console_ingress()} summaries "
          f"(vs {plane.samples_published()} leaf samples published)")
    plane.stop()
    fabric.close()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.baselines.jmf import JMF_PROFILE
    from repro.broker.profile import NARADA_PROFILE

    print(f"Global-MMCS reproduction v{repro.__version__}")
    print("paper: Fox, Wu, Uyar, Bulut, Pallickara — "
          "'Global Multimedia Collaboration System' (MIDDLEWARE 2003)")
    print()
    print("calibration (see EXPERIMENTS.md):")
    nb, jmf = NARADA_PROFILE, JMF_PROFILE
    print(f"  broker send cost: {nb.send_cost_base_s * 1e6:.1f} us + "
          f"{nb.send_cost_per_byte_s * 1e9:.1f} ns/B "
          f"(video pkt ~{nb.send_cost_s(1262) * 1e6:.1f} us, "
          f"audio pkt ~{nb.send_cost_s(172) * 1e6:.1f} us)")
    print(f"  reflector send cost: {jmf.send_cost_base_s * 1e6:.1f} us + "
          f"{jmf.send_cost_per_byte_s * 1e9:.1f} ns/B, "
          f"backlog bound {jmf.max_backlog_tasks} tasks")
    print()
    print("subsystems: simnet, broker, rtp, soap, sip, h323, streaming, "
          "communities, core.xgsp, baselines, bench")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats
    import time

    from repro.bench.figure3 import Fig3Config, run_figure3

    config = Fig3Config(packets=args.packets, seed=args.seed)
    print(f"profiling figure-3 narada workload "
          f"({config.receivers} receivers, {config.packets} packets)...")
    profiler = cProfile.Profile()
    t0 = time.process_time()
    profiler.enable()
    result = run_figure3("narada", config)
    profiler.disable()
    cpu_s = time.process_time() - t0
    events = result.events_processed
    print(f"  {events} kernel events in {cpu_s:.2f} CPU-s "
          f"({events / cpu_s:,.0f} events/sec), "
          f"avg delay {result.avg_delay_ms:.2f} ms")
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort)
    stats.print_stats(args.limit)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Global-MMCS reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser("fig3", help="run the Figure 3 experiment")
    fig3.add_argument("--system", choices=("narada", "jmf", "both"),
                      default="both")
    fig3.add_argument("--packets", type=int, default=2000)
    fig3.add_argument("--seed", type=int, default=0)
    fig3.set_defaults(handler=_cmd_fig3)

    capacity = sub.add_parser("capacity", help="broker capacity sweep")
    capacity.add_argument("--media", choices=("video", "audio"),
                          default="video")
    capacity.add_argument("--points", default="",
                          help="comma-separated client counts")
    capacity.add_argument("--duration", type=float, default=6.0)
    capacity.add_argument("--seed", type=int, default=0)
    capacity.set_defaults(handler=_cmd_capacity)

    demo = sub.add_parser("demo", help="run the heterogeneous demo")
    demo.set_defaults(handler=_cmd_demo)

    trace_demo = sub.add_parser(
        "trace-demo",
        help="trace a stream across a crash and explain the gap",
    )
    trace_demo.add_argument("--sample-rate", type=float, default=0.2)
    trace_demo.add_argument("--seed", type=int, default=12)
    trace_demo.set_defaults(handler=_cmd_trace_demo)

    fleet = sub.add_parser(
        "fleet-health",
        help="run a clustered fabric and print the fleet health report",
    )
    fleet.add_argument("--clusters", type=int, default=3)
    fleet.add_argument("--size", type=int, default=3,
                       help="brokers per cluster")
    fleet.add_argument("--duration", type=float, default=15.0,
                       help="workload seconds after convergence")
    fleet.add_argument("--slo-p99-ms", type=float, default=100.0)
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument("--regions", default="",
                       help="comma-separated region names; clusters are "
                            "assigned round-robin and the report groups "
                            "by region (e.g. us,eu,ap)")
    fleet.set_defaults(handler=_cmd_fleet_health)

    info = sub.add_parser("info", help="inventory + calibration")
    info.set_defaults(handler=_cmd_info)

    profile = sub.add_parser(
        "profile", help="cProfile the fig3 hot path, print top frames"
    )
    profile.add_argument("--packets", type=int, default=300)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--sort", choices=("tottime", "cumulative"),
                         default="tottime")
    profile.add_argument("--limit", type=int, default=25)
    profile.set_defaults(handler=_cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
