"""Experiment harnesses: workloads, metrics, and the paper's figures.

Each experiment in DESIGN.md's index has a ``run_*`` entry point here;
the ``benchmarks/`` scenarios (``python -m benchmarks``) call them and
gate the results, and the ``fig3`` / ``capacity`` CLI subcommands print
them as paper-style tables.
"""

from repro.bench.figure3 import Fig3Config, Fig3Result, run_figure3
from repro.bench.capacity import CapacityConfig, CapacityPoint, run_capacity_sweep

__all__ = [
    "Fig3Config",
    "Fig3Result",
    "run_figure3",
    "CapacityConfig",
    "CapacityPoint",
    "run_capacity_sweep",
]
