"""Anti-drift lint: every constructor option is one some caller sets.

Walks every ``__init__`` defined in ``src/repro`` and lists its keyword
options (parameters with a default).  An option passes when some call
of the class in ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or
``perf/`` sets it: by naming it, by passing it positionally, or by
forwarding ``*args``/``**kwargs`` into the call.

A call reaches a class by its name (``Foo(...)``, ``mod.Foo(...)``,
``functools.partial(Foo, ...)``), by ``cls(...)``/``type(self)(...)``
inside the class body, and by ``super().__init__(...)`` or
``Base.__init__(self, ...)``, which count toward the base class.  A
subclass without its own ``__init__`` hands its calls to the nearest
base that has one.  A forward is followed where the source shows what
it carries: ``**kwargs`` of the enclosing helper carries what the
helper's callers pass (and a class the helper takes as a parameter is
the one its callers pass), a local ``**options`` bound once to a dict
literal carries its keys, and a ``pytest.mark.parametrize`` argument
carries the keys of its dict literals.  Any other forward counts as
passing every option.

An option no caller sets is a constant with a branch attached: make it
a constant on the class or in the module and drop the branch.  Ports,
addresses and ids/names are deployment settings and are allowlisted
below, each with its reason.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"
CALLER_DIRS = ("src", "tests", "benchmarks", "examples", "perf")

#: How many helper levels a forward is followed through.
MAX_FORWARD_DEPTH = 4

#: (class, option) -> why it stays configurable without a caller.
ALLOWLIST: Dict[Tuple[str, str], str] = {
    ("AccessGridBridge", "bridge_id"): "id: the bridge's XGSP participant name",
    ("AdmireSystem", "soap_port"): "port: the Admire SOAP container",
    ("AlertLog", "client_id"): "id: the alert console's broker client",
    ("AudioSource", "ssrc"): "id: the RTP synchronization source",
    ("BrokerMonitor", "monitor_id"): "id: the monitor's broker client",
    ("Gatekeeper", "port"): "port: the RAS endpoint",
    ("H323Mcu", "h225_port"): "port: the MCU's call-signaling listener",
    ("H323XgspGateway", "gateway_id"): "id: the gateway's H.323 alias",
    ("H323XgspGateway", "h225_port"): "port: the gateway's call-signaling listener",
    ("HelixServer", "ingest_port"): "port: the producers' ingest listener",
    ("HelixServer", "rtsp_port"): "port: the players' RTSP listener",
    ("JmfReflector", "port"): "port: the reflector's UDP socket",
    ("McuCollaborationService", "service_name"): "name: the WSDL-CI service",
    ("RealProducer", "producer_id"): "id: the producer's stream owner name",
    ("RendezvousService", "port"): "port: the P2P rendezvous socket",
    ("SipProxy", "port"): "port: the domain proxy's SIP socket",
    ("SipUserAgent", "port"): "port: the user agent's SIP socket",
    ("SipXgspGateway", "gateway_id"): "id: the gateway's XGSP participant name",
    ("TelemetryPlane", "console_name"): "name: the fleet console's host and client",
    ("TraceCollector", "client_id"): "id: the collector's broker client",
    ("VideoSource", "ssrc"): "id: the RTP synchronization source",
    ("XgspWebServer", "participant_id"): "id: the web server's XGSP participant name",
    ("XgspWebServer", "soap_port"): "port: the web server's SOAP container",
}


class InitInfo(NamedTuple):
    where: str
    positional: Tuple[str, ...]  # parameters after self, in order
    options: Tuple[str, ...]  # parameters with a default


class CallInfo(NamedTuple):
    positional: int
    keywords: Tuple[str, ...]
    forwards: bool  # carries arguments the source does not show


class Scope(NamedTuple):
    """The function a call sits in."""

    callers_name: str  # its name, or its class's name for ``__init__``
    params: Tuple[str, ...]  # positional parameters, self/cls dropped
    named: Set[str]  # every named parameter
    kwarg: Optional[str]
    dicts: Dict[str, Optional[Tuple[str, ...]]]  # name -> literal keys


class RawCall(NamedTuple):
    node: ast.Call
    callees: Tuple[str, ...]
    callee_param: Optional[str]  # the callee is this scope parameter
    info: CallInfo
    via_kwarg: bool  # forwards the scope's ``**kwargs``
    scope: Optional[Scope]


def _name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _literal_keys(node: Optional[ast.expr]) -> Optional[Tuple[str, ...]]:
    """The keys of a ``{...}`` or ``dict(...)`` literal, else ``None``."""
    if isinstance(node, ast.Dict) and all(
        isinstance(k, ast.Constant) and isinstance(k.value, str)
        for k in node.keys
    ):
        return tuple(k.value for k in node.keys)
    if (
        isinstance(node, ast.Call)
        and _name(node.func) == "dict"
        and not node.args
        and all(k.arg for k in node.keywords)
    ):
        return tuple(k.arg for k in node.keywords)
    return None


def _dict_bindings(
    body: ast.AST, params: Set[str]
) -> Dict[str, Optional[Tuple[str, ...]]]:
    """Names bound once to a dict literal and never changed after."""
    bindings: Dict[str, List[ast.expr]] = defaultdict(list)
    changed: Set[str] = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id].append(node.value)
                elif isinstance(target, ast.Subscript):
                    changed.add(_name(target.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("update", "setdefault", "pop"):
                changed.add(_name(node.func.value))
    return {
        name: (
            _literal_keys(values[0])
            if len(values) == 1 and name not in changed and name not in params
            else None
        )
        for name, values in bindings.items()
    }


def _parametrized_keys(
    function: ast.FunctionDef,
) -> Dict[str, Optional[Tuple[str, ...]]]:
    """Parametrize arguments whose every value is a dict literal."""
    found: Dict[str, Optional[Tuple[str, ...]]] = {}
    for decorator in function.decorator_list:
        if not (
            isinstance(decorator, ast.Call)
            and _name(decorator.func) == "parametrize"
            and len(decorator.args) >= 2
            and isinstance(decorator.args[0], ast.Constant)
            and isinstance(decorator.args[1], (ast.List, ast.Tuple))
        ):
            continue
        names = [n.strip() for n in decorator.args[0].value.split(",")]
        for index, name in enumerate(names):
            keys: Set[str] = set()
            for value in decorator.args[1].elts:
                if len(names) > 1:
                    is_row = isinstance(value, ast.Tuple)
                    value = value.elts[index] if is_row else None
                literal = _literal_keys(value)
                if literal is None:
                    keys = None
                    break
                keys.update(literal)
            found[name] = tuple(sorted(keys)) if keys is not None else None
    return found


def class_inits(
    root: Path,
) -> Tuple[Dict[str, List[InitInfo]], Dict[str, Set[str]]]:
    """``{class: [InitInfo]}`` and ``{class: base names}`` under ``root``."""
    inits: Dict[str, List[InitInfo]] = defaultdict(list)
    bases: Dict[str, Set[str]] = defaultdict(set)
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            bases[node.name].update(b for b in map(_name, node.bases) if b)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    positional = [a.arg for a in args.posonlyargs + args.args]
                    positional = positional[1:]  # self
                    options = positional[len(positional) - len(args.defaults):]
                    options += [
                        a.arg
                        for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None
                    ]
                    inits[node.name].append(
                        InitInfo(
                            f"{path.relative_to(root.parent)}:{item.lineno}",
                            tuple(positional),
                            tuple(options),
                        )
                    )
    return inits, bases


def _scope(
    function: ast.FunctionDef, owner: Optional[ast.ClassDef], module_dicts
) -> Scope:
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if owner is not None and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    named = set(positional) | {a.arg for a in args.kwonlyargs}
    # A parameter shadows the module's binding of its name.
    dicts = {k: v for k, v in module_dicts.items() if k not in named}
    dicts.update(_dict_bindings(function, named))
    dicts.update(_parametrized_keys(function))
    is_init = owner is not None and function.name == "__init__"
    return Scope(
        owner.name if is_init else function.name,
        tuple(positional),
        named,
        args.kwarg.arg if args.kwarg else None,
        dicts,
    )


def raw_calls(module: ast.Module) -> Iterator[RawCall]:
    """Every call in ``module`` with what the source shows of it."""
    module_dicts = _dict_bindings(module, set())

    def visit(node, owner, scope):
        if isinstance(node, ast.ClassDef):
            owner = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = _scope(node, owner, module_dicts)
        elif isinstance(node, ast.Call):
            yield from read(node, owner, scope)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner, scope)

    def read(call, owner, scope):
        func, positional = call.func, len(call.args)
        callees: Tuple[str, ...] = ()
        callee_param = None
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            if _name(getattr(func.value, "func", func.value)) == "super":
                bases = owner.bases if owner is not None else []
                callees = tuple(b for b in map(_name, bases) if b)
            else:  # ``Base.__init__(self, ...)``: the first argument is self
                callees, positional = (_name(func.value),), positional - 1
        elif _name(func) == "partial" and call.args:
            callees, positional = (_name(call.args[0]),), positional - 1
        elif owner is not None and (
            _name(func) == "cls"
            or (isinstance(func, ast.Call) and _name(func.func) == "type")
        ):
            callees = (owner.name,)
        elif (
            scope is not None
            and isinstance(func, ast.Name)
            and func.id in scope.named
        ):
            callee_param = func.id
        elif _name(func):
            callees = (_name(func),)

        keywords = [k.arg for k in call.keywords if k.arg]
        opaque = any(isinstance(a, ast.Starred) for a in call.args)
        via_kwarg = False
        for keyword in call.keywords:
            if keyword.arg is not None:
                continue
            value = keyword.value
            forwarded = value.id if isinstance(value, ast.Name) else ""
            if scope is not None and forwarded and forwarded == scope.kwarg:
                via_kwarg = True
            elif scope is not None and scope.dicts.get(forwarded) is not None:
                keywords += scope.dicts[forwarded]
            else:
                opaque = True
        yield RawCall(
            call,
            callees,
            callee_param,
            CallInfo(positional, tuple(keywords), opaque),
            via_kwarg,
            scope,
        )

    yield from visit(module, None, None)


def _argument(call: ast.Call, scope: Scope, param: str) -> Optional[ast.expr]:
    """What ``call`` (a call of ``scope``'s function) passes for ``param``."""
    params = scope.params
    index = params.index(param) if param in params else len(call.args)
    if index < len(call.args) and not isinstance(call.args[index], ast.Starred):
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == param), None)


def resolved(
    raw: RawCall, callers, depth: int = MAX_FORWARD_DEPTH
) -> Iterator[Tuple[Tuple[str, ...], CallInfo]]:
    """``(class names, call)`` for ``raw`` along every chain of helpers."""
    if not raw.via_kwarg and raw.callee_param is None:
        yield raw.callees, raw.info
        return
    if depth == 0:
        yield raw.callees, raw.info._replace(forwards=True)
        return
    for outer in callers.get(raw.scope.callers_name, ()):
        callees = raw.callees
        if raw.callee_param is not None:
            argument = _argument(outer.node, raw.scope, raw.callee_param)
            if argument is None or not _name(argument):
                continue
            callees = (_name(argument),)
        for _, outer_info in resolved(outer, callers, depth - 1):
            keywords = raw.info.keywords
            if raw.via_kwarg:
                keywords += tuple(
                    k for k in outer_info.keywords if k not in raw.scope.named
                )
            yield callees, CallInfo(
                raw.info.positional,
                keywords,
                raw.info.forwards or (raw.via_kwarg and outer_info.forwards),
            )


def collect_calls(dirs) -> Dict[str, List[CallInfo]]:
    """``{callee name: [CallInfo]}`` over every ``*.py`` under ``dirs``."""
    raws = [
        raw
        for directory in dirs
        for path in sorted(Path(directory).rglob("*.py"))
        for raw in raw_calls(ast.parse(path.read_text()))
    ]
    callers: Dict[str, List[RawCall]] = defaultdict(list)
    for raw in raws:
        for name in raw.callees:
            callers[name].append(raw)
    calls: Dict[str, List[CallInfo]] = defaultdict(list)
    for raw in raws:
        for names, info in resolved(raw, callers):
            for name in names:
                calls[name].append(info)
    return calls


def unset_options(root: Path, dirs) -> List[Tuple[str, str, str]]:
    """``(where, class, option)`` for every option no call in ``dirs`` sets."""
    inits, bases = class_inits(root)
    calls = collect_calls(dirs)

    def owners(name: str, seen: Set[str]) -> Set[str]:
        if name in inits:
            return {name}
        found: Set[str] = set()
        for base in bases.get(name, ()):
            if base not in seen:
                found |= owners(base, seen | {base})
        return found

    reaching: Dict[str, List[CallInfo]] = defaultdict(list)
    for name, infos in calls.items():
        for owner in owners(name, {name}):
            reaching[owner].extend(infos)

    unset = []
    for name, infos in sorted(inits.items()):
        for init in infos:
            for option in init.options:
                index = (
                    init.positional.index(option)
                    if option in init.positional
                    else len(init.positional)
                )
                if not any(
                    c.forwards or option in c.keywords or c.positional > index
                    for c in reaching[name]
                ):
                    unset.append((init.where, name, option))
    return unset


def test_every_constructor_option_is_set_by_some_caller():
    unset = unset_options(SRC_ROOT, [REPO_ROOT / d for d in CALLER_DIRS])
    offenders = [
        f"{where} {cls}({option}=)"
        for where, cls, option in unset
        if (cls, option) not in ALLOWLIST
    ]
    assert not offenders, (
        "constructor options no caller in "
        f"{', '.join(CALLER_DIRS)} sets (make each a constant and drop "
        f"its branch, or allowlist a deployment setting): {offenders}"
    )
    stale = set(ALLOWLIST) - {(cls, option) for _, cls, option in unset}
    assert not stale, f"allowlisted options some caller sets, or gone: {stale}"


def test_lint_follows_every_way_a_call_can_set_an_option(tmp_path):
    """The walker itself works: each reach in the module docstring sets
    exactly the option it names, and nothing sets ``unset``."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "lib.py").write_text(
        "class Base:\n"
        "    def __init__(self, host, by_super=0, unset=0):\n"
        "        pass\n"
        "class Child(Base):\n"
        "    def __init__(self, host, by_helper=0, by_dict=0, by_param=0):\n"
        "        super().__init__(host, by_super=1)\n"
        "class Heir(Child):\n"
        "    pass\n"
        "class Other:\n"
        "    def __init__(self, by_position=0, by_class_param=0, unset=0):\n"
        "        pass\n"
    )
    (src / "callers.py").write_text(
        "import pytest\n"
        "OPTIONS = {'by_dict': 1}\n"
        "def make(host, **kwargs):\n"
        "    return Heir(host, **kwargs)\n"
        "def build(kind, **kwargs):\n"
        "    return kind(**kwargs)\n"
        "def test_helpers():\n"
        "    make(None, by_helper=1)\n"
        "    Child(None, **OPTIONS)\n"
        "    Other(1)\n"
        "    build(Other, by_class_param=1)\n"
        "@pytest.mark.parametrize('options', [{'by_param': 1}])\n"
        "def test_table(options):\n"
        "    Child(None, **options)\n"
    )
    assert [
        (cls, option) for _, cls, option in unset_options(src, [src])
    ] == [("Base", "unset"), ("Other", "unset")]


if __name__ == "__main__":
    for where, cls, option in unset_options(
        SRC_ROOT, [REPO_ROOT / d for d in CALLER_DIRS]
    ):
        print(f"{where} {cls}({option}=)")
