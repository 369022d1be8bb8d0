"""Outside-in benchmark of the reproduction: five workloads, host-time and
modeled end-to-end metrics, and a per-layer table from a traced run.

See ``perf/README.md``.  Nothing here is imported by ``repro``, and
nothing here imports ``benchmarks/`` or ``repro.bench``: the measuring
stick must not move when those are rewritten.
"""
