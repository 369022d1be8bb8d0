"""Anti-drift lint for the counter registry, in both directions.

Producer side: walks ``broker.py``'s AST for ``self.<name> += ...``
statements inside ``class Broker`` and fails if any mutated public
attribute is missing from the broker's metrics registry.
``Broker.statistics()`` and the monitor's samples are generated from the
registry, so an unregistered counter would silently vanish from the
whole monitoring surface.

Consumer side: the telemetry plane and the fleet report read counters
out of sample dicts by name with a silent default (``.get("name", 0)``);
every such name must be a key of :func:`sample_numbers`, or a renamed
counter would read 0 on the console.
"""

import ast
import inspect

import repro.broker.broker as broker_module
import repro.obs.aggregate as aggregate_module
import repro.obs.report as report_module
from repro.broker.broker import Broker
from repro.broker.monitor import sample_numbers


def mutated_counter_names():
    tree = ast.parse(inspect.getsource(broker_module))
    broker_class = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Broker"
    )
    names = set()
    for node in ast.walk(broker_class):
        if not isinstance(node, ast.AugAssign):
            continue
        target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and not target.attr.startswith("_")  # private bookkeeping
        ):
            names.add(target.attr)
    return names


def test_every_mutated_broker_counter_is_registered(net):
    names = mutated_counter_names()
    # The walk found the real counters (guards against a silent no-op
    # lint if the AST shape ever changes).
    assert {"events_routed", "events_delivered", "lsas_deduped"} <= names

    broker = Broker(net.create_host("lint-host"), broker_id="lint")
    missing = sorted(
        name for name in names if not broker.metrics.has(name)
    )
    assert not missing, (
        f"counters mutated in broker.py but never registered in the "
        f"metrics registry (add them to Broker.__init__): {missing}"
    )


def test_statistics_is_registry_generated(net):
    broker = Broker(net.create_host("lint2-host"), broker_id="lint2")
    statistics = broker.statistics()
    assert statistics == broker.metrics.counters_snapshot()
    for name in mutated_counter_names():
        assert name in statistics


def defaulted_reads(module):
    """The string key of every ``<mapping>.get("<key>", <default>)`` call."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and len(node.args) == 2
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names.add(node.args[0].value)
    return names


def test_every_counter_the_consumers_read_is_sampled(net):
    names = defaulted_reads(aggregate_module) | defaulted_reads(report_module)
    # The walk found the real reads (guards against a silent no-op).
    assert {
        "overload_state", "outbox_depth", "cpu_busy_s",
        "events_delivered", "clients",
    } <= names

    broker = Broker(net.create_host("lint3-host"), broker_id="lint3")
    missing = sorted(names - set(sample_numbers(broker)))
    assert not missing, (
        f"telemetry consumers read counters no sample carries (renamed or "
        f"never registered?): {missing}"
    )
