"""Compare two results files: ``python -m perf.compare A.json B.json``.

Prints, per workload and end-to-end metric, the median of A, the median
of B, the change, and a verdict against the metric's bound:

* ``better`` / ``worse`` — B's median differs from A's by more than the
  bound, in the good / bad direction;
* ``within`` — it does not;
* ``unresolved`` — the min-max spread of either side exceeds the bound,
  so the runs cannot tell.

Every workload gets its own rows.  Program counters and the modeled
delay split are compared for identity.  Exits 1 when any verdict is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Tuple

from perf.metrics import END_TO_END, Metric


def verdict(metric: Metric, a: dict, b: dict) -> Tuple[float, str]:
    """Relative change of the median (positive = worse) and its verdict."""
    change = (b["median"] - a["median"]) / a["median"]
    if metric.better == "higher":
        change = -change
    spread = max((side["max"] - side["min"]) / side["median"] for side in (a, b))
    if spread > metric.bound:
        return change, "unresolved"
    if change > metric.bound:
        return change, "worse"
    if change < -metric.bound:
        return change, "better"
    return change, "within"


def differing_counters(a: dict, b: dict) -> List[str]:
    names = [name for name in a["counters"] if a["counters"][name] != b["counters"].get(name)]
    if "hops" in a and "hops" in b:
        names += [name for name in a["hops"] if a["hops"][name] != b["hops"].get(name)]
    return names


def compare(a: dict, b: dict) -> int:
    """Print the table; returns the number of ``worse`` verdicts."""
    worse = 0
    print(
        f"{'workload':<22}{'metric':<22}{'unit':<8}{'median A':>12}"
        f"{'median B':>12}{'worse by':>10}{'bound':>8}  verdict"
    )
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"].get(workload)
        if result_b is None:
            print(f"{workload:<22}missing from B")
            continue
        for metric in END_TO_END:
            row_a = result_a["end_to_end"][metric.name]
            row_b = result_b["end_to_end"][metric.name]
            change, outcome = verdict(metric, row_a, row_b)
            worse += outcome == "worse"
            print(
                f"{workload:<22}{metric.name:<22}{metric.unit:<8}"
                f"{row_a['median']:>12.5g}{row_b['median']:>12.5g}"
                f"{change:>+10.2%}{metric.bound:>8.1%}  {outcome}"
            )
        differing = differing_counters(result_a, result_b)
        print(
            f"{workload:<22}counters and modeled split: "
            + ("identical" if not differing else "DIFFER: " + ", ".join(differing))
        )
    return worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="results file of the baseline")
    parser.add_argument("b", help="results file of the change")
    args = parser.parse_args(argv)
    sides = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    worse = compare(*sides)
    print(f"\n{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
