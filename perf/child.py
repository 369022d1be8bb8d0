"""One run of one workload, in this process: ``python -m perf.child``.

``perf.run`` launches this once per repeat, one at a time, so every
timed run starts from a fresh interpreter.  Prints one JSON object (the
run record) as the last line of standard output.

Modes:

* ``timed`` — nothing attached; the host-time metrics, the modeled
  metrics and the program counters come from here.
* ``profile`` — the same inputs under a benchmark-side
  ``cProfile.Profile(builtins=False)``: a span per Python call (function,
  caller, inclusive and self time), so C-builtin time lands in the
  calling layer and self time is a span minus its children.  Bucketed
  by ``perf.layers`` into the layer table.
* ``hop`` — quarter length with a ``Tracer(0.05)`` and a
  ``TraceCollector``: where a packet's *modeled* delay goes.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys
import time
from typing import Dict, Optional

from perf.layers import LAYERS, ROOT, layer_of

sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.obs import Tracer  # noqa: E402

from perf.conference import ConferenceSignaling  # noqa: E402
from perf.counters import measured, quantile_ms, snapshot  # noqa: E402
from perf.workloads import (  # noqa: E402
    Fig3Video,
    MeshRelay,
    ObservedFabric,
    RoamingChurn,
    Workload,
)

REGISTRY = {
    cls.name: cls
    for cls in (Fig3Video, MeshRelay, RoamingChurn, ObservedFabric, ConferenceSignaling)
}

MODES = ("timed", "profile", "hop")
HOP_SAMPLE_RATE = 0.05
HOP_LENGTH = 0.25
#: p99 needs ten samples beyond it.
MIN_DELAY_SAMPLES = 1000


def layer_table(profiler: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Self time and call count of every profiled function, by layer."""
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for entry in profiler.getstats():
        row = table[layer_of(entry.code.co_filename)]
        row["self_s"] += entry.inlinetime
        row["calls"] += entry.callcount
    return table


def hop_split(workload: Workload) -> Dict[str, float]:
    """Link / queue / service shares of the traced packets' delay."""
    summary = workload.collector.summarize(workload.hop_topic)
    if not summary["count"]:
        raise RuntimeError(f"{workload.name}: the hop pass collected no trace")
    return {
        "traces": summary["count"],
        "modeled.link_share": summary["link_share"],
        "modeled.queue_share": summary["queue_share"],
        "modeled.service_share": summary["cpu_share"],
        "modeled.total_p50_ms": summary["total_p50_s"] * 1000.0,
    }


def run(name: str, seed: int, scale: float, mode: str) -> dict:
    """Set up, measure and check one workload; returns the run record."""
    profiler = cProfile.Profile(builtins=False) if mode == "profile" else None
    tracer: Optional[Tracer] = None
    if mode == "hop":
        tracer = Tracer(HOP_SAMPLE_RATE)
        scale *= HOP_LENGTH

    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    workload = REGISTRY[name](seed, scale, tracer)
    workload.setup()
    setup_s = time.process_time() - cpu_start
    before = snapshot(workload)

    cpu_start = time.process_time()
    if profiler is not None:
        profiler.enable()
    workload.measure()
    if profiler is not None:
        profiler.disable()
    cpu_s = time.process_time() - cpu_start
    wall_s = time.perf_counter() - wall_start

    stats = workload.receiver_stats()
    delays_s = [delay for s in stats for delay in s.delays_s]
    jitter_sum_s = sum(jitter for s in stats for jitter in s.jitters_s)
    checks = {
        check: list(pair) for check, pair in workload.expectations().items()
    }
    observed, expected = checks["deliveries"]
    counters = measured(workload, before, snapshot(workload))
    unanswered = (
        counters["signaling.joins_attempted"] - counters["signaling.joins_completed"]
    )
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "mode": mode,
        "sizes": workload.sizes(),
        "traceable": workload.traceable,
        "host": {
            "cpu_s": cpu_s,
            "setup_s": setup_s,
            "wall_s": wall_s,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "deliveries": workload.deliveries,
        "attempted": expected + counters["signaling.joins_attempted"],
        "failed": max(0, expected - observed) + unanswered,
        "checks": checks,
        "modeled": {
            "delay_samples": len(delays_s),
            "delay_p50_ms": quantile_ms(delays_s, 0.50),
            "delay_p99_ms": quantile_ms(delays_s, 0.99),
            "jitter_avg_ms": (
                jitter_sum_s / len(delays_s) * 1000.0 if delays_s else 0.0
            ),
        },
        "counters": counters,
    }
    problems = [
        f"{check}: observed {pair[0]}, expected {pair[1]}"
        for check, pair in checks.items()
        if pair[0] != pair[1]
    ]
    if mode != "hop" and len(delays_s) < MIN_DELAY_SAMPLES:
        problems.append(
            f"delay_samples: {len(delays_s)} is under {MIN_DELAY_SAMPLES}"
        )
    record["problems"] = problems
    if profiler is not None:
        record["layers"] = layer_table(profiler)
    if mode == "hop":
        record["hops"] = hop_split(workload)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REGISTRY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=MODES, default="timed")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.scale, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
