"""The benchmark runner (``python -m benchmarks``) and its discovery guard.

Every ``benchmarks/bench_*.py`` must expose ``scenario(quick)``: a module
without one would silently drop out of the runner, as four benches once
dropped out of the nightly job.  The runner itself is checked with fake
scenario modules, so nothing here runs a real benchmark.
"""

import importlib
import json
import types

import pytest

import benchmarks.__main__ as runner

ENVELOPE_KEYS = {
    "schema", "scenario", "git_sha", "quick", "params", "results", "gates",
}


@pytest.mark.parametrize("name", runner.scenario_names())
def test_every_bench_module_exposes_a_scenario(name):
    module = importlib.import_module(f"benchmarks.bench_{name}")
    assert callable(getattr(module, "scenario", None))


def test_discovery_finds_the_paper_scenarios():
    assert {"figure3", "capacity"} <= set(runner.scenario_names())


def fake(gates=None, error=None):
    def scenario(quick):
        if error is not None:
            raise error
        return {"params": {"size": 1}, "results": {"value": 1.5}, "gates": gates}

    module = types.ModuleType("bench_fake")
    module.scenario = scenario
    return module


def test_full_run_writes_exactly_the_envelope(tmp_path):
    assert runner.run({"fake": fake({"holds": True})}, False, tmp_path) == 0
    envelope = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert set(envelope) == ENVELOPE_KEYS
    assert envelope["scenario"] == "fake"
    assert envelope["quick"] is False
    assert envelope["params"] == {"size": 1}
    assert envelope["results"] == {"value": 1.5}
    assert envelope["gates"] == {"holds": True}


def test_false_gate_fails_the_run_and_is_recorded(tmp_path):
    code = runner.run({"fake": fake({"holds": True, "broken": False})}, False, tmp_path)
    assert code == 1
    envelope = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert envelope["gates"] == {"holds": True, "broken": False}


def test_raising_scenario_fails_the_run_and_the_rest_still_run(tmp_path):
    scenarios = {
        "boom": fake(error=RuntimeError("boom")),
        "fine": fake({"holds": True}),
    }
    assert runner.run(scenarios, False, tmp_path) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_fine.json"]


def test_quick_run_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(
        runner, "json_artifact",
        lambda *args: pytest.fail("a quick run wrote an artifact"),
    )
    assert runner.run({"fake": fake({"holds": True})}, True, tmp_path) == 0
    assert runner.run({"fake": fake({"broken": False})}, True, tmp_path) == 1


def test_unknown_scenario_name_is_rejected():
    with pytest.raises(SystemExit):
        runner.main(["no-such-scenario"])
