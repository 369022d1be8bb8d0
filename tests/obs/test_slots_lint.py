"""Anti-drift lint: hot-path classes must declare ``__slots__``.

The raw-speed pass removed per-instance ``__dict__`` from every object
allocated per event, per packet, or per hop (kernel timers, datagrams,
NIC state, broker events, wire messages, trace records, QoS inbox/outbox
state).  This lint walks the AST of those designated modules and fails
when a class sneaks back in without ``__slots__`` — the usual way the
allocation win erodes, because a dict-bearing subclass or a new message
type silently reintroduces ~100 bytes and a dict alloc per instance.

Two tiers:

* **Fully slotted modules** — every class defined in the module must
  declare ``__slots__`` (enums, ``NamedTuple``s and exception types are
  exempt: enums/exceptions are never allocated per event, and named
  tuples have no instance dict to begin with).
* **Hot classes** — modules that legitimately mix connection-scoped
  (dict) classes with per-packet ones, and the classes every simulated
  endpoint holds one of (host, CPU, socket, broker client, transport,
  client link, backoff); only the named classes must be slotted.  This
  also covers every ``WireMessage`` subclass in ``broker.links`` so new
  wire messages cannot regress.
"""

import ast
import importlib
import inspect

#: Every class in these modules is allocated on a per-event/per-packet
#: path (or holds per-event state) and must declare ``__slots__``.
FULLY_SLOTTED_MODULES = (
    "repro.simnet.kernel",
    "repro.simnet.packet",
    "repro.simnet.nic",
    "repro.broker.event",
    "repro.broker.reliable",
    "repro.broker.overload",
    "repro.obs.trace",
    "repro.obs.series",
)

#: (module, class) pairs in modules that also contain connection-scoped
#: classes where a dict is fine; only the listed classes are hot.  The
#: per-endpoint classes are here too: one instance per simulated host or
#: client, so a dict creeping back costs every endpoint of a run.
HOT_CLASSES = (
    ("repro.simnet.tcp", "TcpSegment"),
    ("repro.rtp.packet", "RtpPacket"),
    ("repro.simnet.node", "Host"),
    ("repro.simnet.cpu", "Cpu"),
    ("repro.simnet.udp", "UdpSocket"),
    ("repro.broker.client", "BrokerClient"),
    ("repro.broker.links", "ClientLink"),
    ("repro.broker.links", "UdpClientLink"),
    ("repro.broker.links", "TcpClientLink"),
    ("repro.broker.links", "SslClientLink"),
    ("repro.broker.links", "ClientTransport"),
    ("repro.broker.links", "UdpClientTransport"),
    ("repro.broker.links", "TcpClientTransport"),
    ("repro.broker.links", "SslClientTransport"),
    ("repro.broker.links", "TunnelClientTransport"),
    ("repro.util.backoff", "ExponentialBackoff"),
)

#: Base-class names that exempt a class from the requirement.
_EXEMPT_BASES = {"Enum", "IntEnum", "StrEnum", "NamedTuple"}


def _module_classes(module_name):
    module = importlib.import_module(module_name)
    tree = ast.parse(inspect.getsource(module))
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def _base_names(node):
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _is_exempt(node, module_name):
    bases = _base_names(node)
    if bases & _EXEMPT_BASES:
        return True
    # Exception types: defined by convention as <Name>Error / <Name>Exception
    # or deriving from one.
    exceptionish = {
        name
        for name in bases | {node.name}
        if name.endswith("Error") or name.endswith("Exception")
    }
    return bool(exceptionish)


def _declares_slots(node):
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def test_designated_hot_modules_are_fully_slotted():
    offenders = []
    checked = 0
    for module_name in FULLY_SLOTTED_MODULES:
        for node in _module_classes(module_name):
            if _is_exempt(node, module_name):
                continue
            checked += 1
            if not _declares_slots(node):
                offenders.append(f"{module_name}.{node.name}")
    # The walk saw the real hot classes (guards against a silent no-op
    # lint if module layout changes).
    assert checked >= 8
    assert not offenders, (
        "classes in hot modules without __slots__ (each instance pays a "
        f"dict allocation on the per-event path): {sorted(offenders)}"
    )


def test_designated_hot_classes_are_slotted():
    offenders = []
    for module_name, class_name in HOT_CLASSES:
        node = next(
            (
                cls
                for cls in _module_classes(module_name)
                if cls.name == class_name
            ),
            None,
        )
        assert node is not None, f"{module_name}.{class_name} disappeared"
        if not _declares_slots(node):
            offenders.append(f"{module_name}.{class_name}")
    assert not offenders, f"hot classes without __slots__: {sorted(offenders)}"


def test_every_wire_message_is_slotted():
    """New broker wire messages must not regress to dict-bearing classes."""
    classes = _module_classes("repro.broker.links")
    wire_messages = [
        node for node in classes if "WireMessage" in _base_names(node)
    ]
    assert len(wire_messages) >= 15  # the protocol as of this lint
    offenders = [
        node.name for node in wire_messages if not _declares_slots(node)
    ]
    assert not offenders, (
        f"WireMessage subclasses without __slots__: {sorted(offenders)}"
    )


def test_slotted_instances_reject_stray_attributes():
    """Runtime spot-check that the slots actually took effect (a stray
    ``__dict__`` via a non-slotted base would defeat the AST lint)."""
    from repro.broker.event import NBEvent
    from repro.broker.links import EventDelivery
    from repro.simnet.packet import Address, Datagram

    event = NBEvent(topic="/t", payload=None, size=1)
    datagram = Datagram(Address("a", 1), Address("b", 2), None, 10)
    delivery = EventDelivery(event)
    for obj in (event, datagram, delivery):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
