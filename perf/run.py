"""The benchmark's one command.

Suite form — every workload, every metric, by name and with its unit::

    PYTHONPATH=src python -m perf.run [--seed N] [--repeats K] [--quick] [--out FILE]

runs each workload ``K`` times (a fresh child process per repeat, one at
a time, ``PYTHONHASHSEED=0,1,2,...``), then one profile pass and one hop
pass, checks the outputs, and prints the end-to-end table (median with
min/max), the counter block, the layer table and the hop split.

Driver form — one workload, one JSON line, as ``BENCHMARK.json`` says::

    python3 -m perf.run --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` repeats the quick-size job in fresh child processes until
``S`` seconds have passed and reports the median of every end-to-end
metric; ``--trace 1`` makes one timed, one profile and one hop pass and
reports every per-layer metric.

Either form exits non-zero when an output check fails: delivery counts
against their closed-form expectation, ``delay_samples >= 1000``, and
all modeled metrics and program counters bit-identical across repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from perf.layers import LAYERS, ROOT
from perf.metrics import COUNTERS, END_TO_END, MODELED, PER_LAYER, WORKLOADS

SCHEMA = "perf-results/1"
#: ``--quick`` and the driver form run quarter-size jobs.
QUICK_SCALE = 0.25
#: The driver form never reports a median of fewer rounds than this.
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


def run_child(workload: str, seed: int, scale: float, mode: str, hashseed: int) -> dict:
    """One run in a fresh interpreter; returns its record."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    completed = subprocess.run(
        [
            sys.executable, "-m", "perf.child", "--workload", workload,
            "--seed", str(seed), "--scale", repr(scale), "--mode", mode,
        ],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise CheckFailed(f"{workload} ({mode}) exited {completed.returncode}")
    record = json.loads(completed.stdout.splitlines()[-1])
    if record["problems"]:
        raise CheckFailed(f"{workload} ({mode}): " + "; ".join(record["problems"]))
    return record


def end_to_end(record: dict) -> Dict[str, float]:
    """The end-to-end metrics of one timed run."""
    host, modeled = record["host"], record["modeled"]
    return {
        "cpu_s": host["cpu_s"],
        "deliveries_per_cpu_s": record["deliveries"] / host["cpu_s"],
        "peak_rss_mb": host["peak_rss_mb"],
        "setup_s": host["setup_s"],
        "delay_p50_ms": modeled["delay_p50_ms"],
        "delay_p99_ms": modeled["delay_p99_ms"],
        "jitter_avg_ms": modeled["jitter_avg_ms"],
        "delivered_share": 1.0 - record["failed"] / record["attempted"],
    }


def require_identical(workload: str, records: List[dict]) -> None:
    """Modeled metrics and program counters must not depend on the
    repeat (nor on ``PYTHONHASHSEED``, which differs between repeats)."""
    first = records[0]
    for other in records[1:]:
        for block in ("modeled", "counters", "deliveries", "checks"):
            if other[block] != first[block]:
                differing = (
                    [k for k in first[block] if other[block][k] != first[block][k]]
                    if isinstance(first[block], dict) else [block]
                )
                raise CheckFailed(
                    f"{workload}: {block} differs between repeats: {differing}"
                )


def summarize(workload: str, records: List[dict]) -> Dict[str, dict]:
    """Every end-to-end metric over the timed repeats of one workload,
    once the repeats are known to agree on everything modeled."""
    require_identical(workload, records)
    rounds = [end_to_end(record) for record in records]
    summary = {}
    for metric in END_TO_END:
        values = [values_of[metric.name] for values_of in rounds]
        summary[metric.name] = {
            "repeats": values,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
        }
    return summary


def layer_metrics(profiled: dict) -> Dict[str, float]:
    layers = profiled["layers"]
    total = sum(row["self_s"] for row in layers.values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layers[layer]["self_s"] / total
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
    return metrics


def traced_passes(workload: str, seed: int, scale: float, timed: dict) -> dict:
    """The profile pass and the hop pass of one workload."""
    profiled = run_child(workload, seed, scale, "profile", 0)
    require_identical(workload, [timed, profiled])
    if timed["traceable"]:
        hops = run_child(workload, seed, scale, "hop", 0)["hops"]
    else:
        hops = {metric.name: 0.0 for metric in MODELED}
    return {
        "layers": layer_metrics(profiled),
        "trace_overhead_x": profiled["host"]["cpu_s"] / timed["host"]["cpu_s"],
        "hops": hops,
    }


# ------------------------------------------------------------ driver form


def drive(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    records = [run_child(workload, seed, QUICK_SCALE, "timed", 0)]
    if trace:
        passes = traced_passes(workload, seed, QUICK_SCALE, records[0])
        values = dict(passes["layers"])
        values.update(records[0]["counters"])
        values.update({m.name: passes["hops"][m.name] for m in MODELED})
        units = {m.name: m.unit for m in PER_LAYER}
    else:
        while (
            len(records) < MIN_ROUNDS
            or time.perf_counter() - started < seconds
        ):
            records.append(
                run_child(workload, seed, QUICK_SCALE, "timed", len(records))
            )
        values = {
            name: row["median"] for name, row in summarize(workload, records).items()
        }
        units = {m.name: m.unit for m in END_TO_END}
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


# ------------------------------------------------------------- suite form


def git_sha() -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def measure_workload(workload: str, seed: int, scale: float, repeats: int,
                     traced: bool) -> dict:
    records = [
        run_child(workload, seed, scale, "timed", repeat)
        for repeat in range(repeats)
    ]
    first = records[0]
    result = {
        "sizes": first["sizes"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "deliveries": first["deliveries"],
        "delay_samples": first["modeled"]["delay_samples"],
        "checks": first["checks"],
        "wall_s": [record["host"]["wall_s"] for record in records],
        "end_to_end": summarize(workload, records),
        "counters": first["counters"],
    }
    if traced:
        result.update(traced_passes(workload, seed, scale, first))
    return result


def number(value: float) -> str:
    return f"{value:d}" if isinstance(value, int) else f"{value:.4g}"


def print_report(results: dict) -> None:
    for name, result in results["workloads"].items():
        print(f"\n== {name}  sizes={json.dumps(result['sizes'])}")
        print(
            f"   attempted {result['attempted']}  failed {result['failed']}  "
            f"delay_samples {result['delay_samples']}"
        )
        print(f"   {'end-to-end metric':<24}{'unit':<7}{'clock':<9}"
              f"{'median':>12}{'min':>12}{'max':>12}")
        for m in END_TO_END:
            row = result["end_to_end"][m.name]
            print(
                f"   {m.name:<24}{m.unit:<7}{m.clock:<9}{number(row['median']):>12}"
                f"{number(row['min']):>12}{number(row['max']):>12}"
            )
        print("   program counters (measured phase; identical on every repeat)")
        for m in COUNTERS:
            print(f"   {m.name:<38}{m.unit:<7}{number(result['counters'][m.name]):>14}")
        if "layers" not in result:
            continue
        print(
            "   layer table (profile pass; trace_overhead_x "
            f"{result['trace_overhead_x']:.2f})"
        )
        print(f"   {'layer':<20}{'self_share (ratio)':>20}{'calls (count)':>16}")
        for layer in LAYERS:
            print(
                f"   {layer:<20}{result['layers'][layer + '.self_share']:>20.4f}"
                f"{result['layers'][layer + '.calls']:>16d}"
            )
        print("   modeled delay split (hop pass)")
        for m in MODELED:
            print(f"   {m.name:<38}{m.unit:<7}{number(result['hops'][m.name]):>14}")


def suite(seed: int, repeats: int, quick: bool, out: Optional[str]) -> int:
    scale = QUICK_SCALE if quick else 1.0
    if quick:
        repeats = 1
    results = {
        "schema": SCHEMA,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "workloads": {
            name: measure_workload(name, seed, scale, repeats, traced=not quick)
            for name in WORKLOADS
        },
    }
    print_report(results)
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
            handle.write("\n")
    print("\nall output checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="quarter sizes, 1 repeat, no traced passes")
    parser.add_argument("--out", help="write the results file here")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="driver form: run this one workload")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload is not None:
            return drive(args.workload, args.seed, args.seconds, bool(args.trace))
        return suite(args.seed, args.repeats, args.quick, args.out)
    except CheckFailed as failure:
        print(f"perf.run: check failed: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
