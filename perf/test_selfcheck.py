"""Self-checks of the benchmark.  Run explicitly::

    python -m pytest perf/

(tier-1's ``testpaths`` does not collect this directory).
"""

import json
import os
import re
import subprocess
import sys

import pytest

from perf import compare
from perf.layers import FILES, LAYERS, PACKAGES, REPRO_DIR, ROOT, layer_of_module
from perf.metrics import COUNTERS, END_TO_END, PER_LAYER, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def repro_files():
    found = []
    for directory, _subdirs, files in os.walk(REPRO_DIR):
        for name in files:
            if name.endswith(".py"):
                path = os.path.relpath(os.path.join(directory, name), REPRO_DIR)
                found.append(path.replace(os.sep, "/"))
    return sorted(found)


def test_layer_map_covers_every_source_file_exactly_once():
    files = repro_files()
    assert files, f"no sources under {REPRO_DIR}"
    uncovered = [path for path in files if layer_of_module(path) not in LAYERS]
    assert not uncovered, f"no layer rule covers {uncovered}"
    stale = sorted(set(FILES) - set(files))
    assert not stale, f"file rules without a file: {stale}"
    packages = {path.partition("/")[0] for path in files if "/" in path}
    assert set(PACKAGES) <= packages, sorted(set(PACKAGES) - packages)
    # A file rule that restates its package's default covers the file twice.
    twice = [
        path for path, layer in FILES.items()
        if PACKAGES.get(path.partition("/")[0]) == layer
    ]
    assert not twice, f"covered by a file rule and by the package default: {twice}"


def test_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for name in [*WORKLOADS, *(m.name for m in END_TO_END + PER_LAYER)]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert declared["paths"] == ["perf"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in PER_LAYER]
    assert len(END_TO_END) == 8 and len(PER_LAYER) == 61


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    subprocess.run(
        [sys.executable, "-m", "perf.run", "--quick", "--out", str(out)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=170,
    )
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_quick_produces_every_declared_metric_for_every_workload(quick_results):
    assert list(quick_results["workloads"]) == list(WORKLOADS)
    for workload, result in quick_results["workloads"].items():
        assert sorted(result["end_to_end"]) == sorted(m.name for m in END_TO_END)
        assert sorted(result["counters"]) == sorted(m.name for m in COUNTERS)
        assert result["failed"] == 0, workload
        for metric in END_TO_END:
            assert result["end_to_end"][metric.name]["median"] > 0, (
                workload, metric.name,
            )


def test_traced_run_produces_every_per_layer_metric():
    completed = subprocess.run(
        [
            sys.executable, "-m", "perf.run", "--workload", "mesh_relay",
            "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {m.name: m.unit for m in PER_LAYER}


def test_compare_of_a_file_with_itself_is_all_within(quick_results, capsys):
    assert compare.compare(quick_results, quick_results) == 0
    rows = [
        line for line in capsys.readouterr().out.splitlines()
        if line.split(" ")[0] in WORKLOADS and "counters" not in line
    ]
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)
    assert all(row.endswith("within") for row in rows)
