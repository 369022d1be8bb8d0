"""One runner for every benchmark scenario.

    python -m benchmarks [NAME ...] [--quick]

Each ``benchmarks/bench_<name>.py`` exposes ``scenario(quick)``: a
seeded, virtual-time experiment returning ``params``, ``results`` and
``gates`` (gate name -> bool), with no I/O of its own.  This runner runs
the named scenarios (all of them by default), prints one gate/result
table and exits 1 when any gate is false or any scenario raises.  Full-
size runs write ``BENCH_<name>.json`` through
:func:`repro.bench.reporting.json_artifact` as one envelope:
``{schema, scenario, git_sha, quick, params, results, gates}``.

``--quick`` asks each scenario for its small size (a scenario whose
gates only hold at full size runs full) and writes no file.  ``repro``
must be importable: ``pip install -e .`` or ``PYTHONPATH=src``.
"""

import argparse
import importlib
import subprocess
import sys
import time
import traceback
from pathlib import Path

from repro.bench.reporting import json_artifact, simple_table

#: Version of the ``BENCH_<name>.json`` envelope.
SCHEMA = 1

HERE = Path(__file__).resolve().parent


def scenario_names():
    """Every ``bench_<name>.py`` beside this file, by ``<name>``."""
    return sorted(path.stem[len("bench_"):] for path in HERE.glob("bench_*.py"))


def load(name):
    return importlib.import_module(f"benchmarks.bench_{name}")


def git_sha():
    """The checkout's HEAD, suffixed ``+dirty`` when ``src/`` or
    ``benchmarks/`` differ from it; None outside a git checkout."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=HERE.parent, capture_output=True, text=True
        )

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None
        dirty = git("diff", "--quiet", "HEAD", "--", "src", "benchmarks")
    except OSError:
        return None
    return head.stdout.strip() + ("+dirty" if dirty.returncode else "")


def _shown(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(scenarios, quick, directory=None):
    """Run ``{name: module}`` in order and return the exit code.

    A scenario that raises is reported and counted as failed; the rest
    still run.  Full runs write their artifacts to ``directory``
    (default: the repository root, see ``json_artifact``).
    """
    sha = None if quick else git_sha()
    rows, failed = [], []
    for name, module in scenarios.items():
        print(f"{name}: running{' (quick)' if quick else ''}", flush=True)
        started = time.perf_counter()
        try:
            outcome = module.scenario(quick)
        except Exception:
            traceback.print_exc()
            rows.append((name, "(raised)", "FAIL"))
            failed.append(name)
            continue
        print(f"{name}: {time.perf_counter() - started:.1f} s", flush=True)
        gates = {gate: bool(ok) for gate, ok in outcome["gates"].items()}
        rows += [(name, gate, "pass" if ok else "FAIL") for gate, ok in gates.items()]
        rows += [
            (name, key, _shown(value))
            for key, value in outcome["results"].items()
            if value is None or isinstance(value, (int, float, str))
        ]
        if not all(gates.values()):
            failed.append(name)
        if not quick:
            envelope = {
                "schema": SCHEMA,
                "scenario": name,
                "git_sha": sha,
                "quick": quick,
                "params": outcome["params"],
                "results": outcome["results"],
                "gates": gates,
            }
            print(f"{name}: wrote {json_artifact(name, envelope, directory)}")
    print(simple_table(
        "Benchmark scenarios" + (" (quick)" if quick else ""),
        rows, ("scenario", "gate / result", "value"),
    ))
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        return 1
    print(f"OK: every gate of {len(scenarios)} scenario(s) held")
    return 0


def main(argv=None):
    known = scenario_names()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"scenarios to run (default: all of {', '.join(known)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="each scenario's small size; writes no artifact",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}")
    names = list(dict.fromkeys(args.names)) or known
    return run({name: load(name) for name in names}, args.quick)


if __name__ == "__main__":
    sys.exit(main())
