"""Anti-drift lint for the counter registry, in both directions.

Producer side: walks every ``repro/broker/*.py`` module's AST for
statements that bump a broker counter — ``self.<name> += ...`` inside
``class Broker``, ``<...>.broker.<name> += ...`` or ``broker.<name> +=
...`` in any other class (the mesh, its link-state tiers, the gateway,
the ordering and geo planes) — and fails if any such public attribute
is missing from the broker's metrics registry.  ``Broker.statistics()`` and the monitor's samples are
generated from the registry, so an unregistered counter would silently
vanish from the whole monitoring surface.  The XGSP session server gets
the same walk over ``session_server.py`` and ``replication.py``:
``self.<name> +=`` inside ``class XgspSessionServer``, ``server.<name>
+=`` or ``<...>.server.<name> +=`` in the replication plane.

Consumer side: the telemetry plane and the fleet report read counters
out of sample dicts by name with a silent default (``.get("name", 0)``);
every such name must be a key of :func:`sample_numbers`, or a renamed
counter would read 0 on the console.
"""

import ast
import inspect
import pathlib

import repro.broker as broker_package
import repro.core.xgsp.replication as replication_module
import repro.core.xgsp.session_server as session_server_module
import repro.obs.aggregate as aggregate_module
import repro.obs.report as report_module
from repro.broker.broker import Broker
from repro.broker.monitor import sample_numbers
from repro.core.xgsp.session_server import XgspSessionServer

BROKER_MODULES = sorted(pathlib.Path(broker_package.__file__).parent.glob("*.py"))
SERVER_MODULES = [
    pathlib.Path(session_server_module.__file__),
    pathlib.Path(replication_module.__file__),
]


def bumped_counter(node, in_owner_class, owner):
    """The counter name an ``AugAssign`` bumps on ``owner``, or None."""
    target = node.target
    if not isinstance(target, ast.Attribute) or target.attr.startswith("_"):
        return None  # private bookkeeping
    value = target.value
    if isinstance(value, ast.Name):
        bumped = value.id == ("self" if in_owner_class else owner)
    else:
        bumped = isinstance(value, ast.Attribute) and value.attr == owner
    return target.attr if bumped else None


def mutated_counter_names(
    paths=BROKER_MODULES, owner_class="Broker", owner="broker"
):
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if isinstance(node, ast.AugAssign):
                    name = bumped_counter(node, cls.name == owner_class, owner)
                    if name is not None:
                        names.add(name)
    return names


def test_every_mutated_broker_counter_is_registered(net):
    names = mutated_counter_names()
    # The walk found the real counters — broker, mesh, gateway and geo
    # ones (guards against a silent no-op lint if the AST shape ever
    # changes).
    assert {
        "events_routed", "events_delivered", "lsas_stale",
        "peers_evicted", "gateway_takeovers",
        "wan_parked", "sequencer_pins_set",
    } <= names

    broker = Broker(net.create_host("lint-host"), broker_id="lint")
    missing = sorted(
        name for name in names if not broker.metrics.has(name)
    )
    assert not missing, (
        f"broker counters mutated in repro/broker/ but never registered in "
        f"the metrics registry (add them to broker.COUNTERS): {missing}"
    )


def test_every_mutated_session_server_counter_is_registered(net):
    names = mutated_counter_names(
        SERVER_MODULES, "XgspSessionServer", "server"
    )
    # The walk found counters on both sides of the plane boundary.
    assert {
        "promotions", "ops_applied", "joins_shed", "snapshots_installed",
    } <= names

    broker = Broker(net.create_host("lint-xgsp-broker"), broker_id="lint")
    server = XgspSessionServer(net.create_host("lint-xgsp-host"), broker)
    missing = sorted(
        name for name in names if not server.metrics.has(name)
    )
    assert not missing, (
        f"session-server counters mutated in session_server.py or "
        f"replication.py but never registered in the metrics registry "
        f"(add them to session_server.COUNTERS): {missing}"
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
