"""The boundary around ``ShardedService``, checked by ``ast`` so it
cannot rot — ``tests/lsm/test_db_shape.py``'s checks, pointed at the
service: nothing outside ``service/service.py`` reads a service's
private attributes, the policy/replication/client modules do not know
the class that drives them, the class and the routing interface do not
grow back (lower the caps when a later PR shrinks them), the event heap
keeps one push site, the serve paths never rehash a request, and every
service mode is selected by something that ships.
"""

import ast

from repro.lsm.options import CATALOG, OptKind
from tests.lsm.test_db_shape import SRC, _parse, class_shape, imported_modules

SERVICE_PY = SRC / "service" / "service.py"

MAX_PRIVATE_ATTRS = 19
MAX_METHODS = 33
#: ``route`` is the seventh: a request is hashed once, at enqueue, and
#: ``owner`` maps the carried route.
MAX_POLICY_METHODS = 7
MAX_HEAPPUSH_FUNCTIONS = 1


def _private_reads_through_service(tree):
    """``service``, ``svc``, ``self._service``, ...: every name ``src/``
    binds a ShardedService to."""

    def is_handle(node):
        name = getattr(node, "id", None) or getattr(node, "attr", "")
        return name in ("service", "svc", "_service", "_svc")

    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and is_handle(node.value)
    ]


def test_the_detector_sees_each_spelling():
    tree = ast.parse(
        "a = service._heap\nb = svc._shards\nc = self._service._policy\n"
        "d = service.write_audit\ne = svc.__class__\nf = self._shards\n"
    )
    assert len(_private_reads_through_service(tree)) == 3


def test_no_module_outside_service_py_reads_service_privates():
    offenders = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if path != SERVICE_PY
        and (found := _private_reads_through_service(_parse(path)))
    }
    assert not offenders, (
        f"private ShardedService state read outside service/service.py: "
        f"{offenders}; add a public accessor or hook instead"
    )


def test_collaborators_do_not_import_the_service():
    for name in ("routing", "replication", "clients"):
        modules = imported_modules(_parse(SRC / "service" / f"{name}.py"))
        assert "repro.service.service" not in modules, name
        assert "repro.service" not in modules, name  # the package re-exports it


def test_service_and_policy_do_not_outgrow_their_shape():
    methods, attrs = class_shape(_parse(SERVICE_PY), "ShardedService")
    assert len(attrs) <= MAX_PRIVATE_ATTRS, sorted(attrs)
    assert len(methods) <= MAX_METHODS, sorted(methods)
    policy_methods, _ = class_shape(
        _parse(SRC / "service" / "routing.py"), "RoutingPolicy"
    )
    public = {m for m in policy_methods if not m.startswith("_")}
    assert len(public) <= MAX_POLICY_METHODS, sorted(public)


def test_one_function_pushes_events():
    """``_schedule`` stamps every event with the next ``seq``; a second
    push site is a second place to get the tie-break wrong."""
    pushers = sorted(
        func.name
        for func in ast.walk(_parse(SERVICE_PY))
        if isinstance(func, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "heapq.heappush"
            for node in ast.walk(func)
        )
    )
    assert len(pushers) <= MAX_HEAPPUSH_FUNCTIONS, pushers


#: The routing hash and everything that computes it.
HASHING = {"route", "fnv1a_64", "ring_hash", "shard_for_key"}


def _hash_sites(func):
    """Every place ``func`` reaches the routing hash: a policy's
    ``route`` method (called or bound to a local) or a hash function."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(func)
        if (isinstance(node, ast.Attribute) and node.attr in HASHING)
        or (isinstance(node, ast.Name) and node.id in HASHING - {"route"})
    ]


def test_serve_paths_never_hash():
    """A request is hashed once, at enqueue; the serve paths check the
    route its queue entry carries with ``owner`` and never rehash."""
    probe = ast.parse(
        "a = self._policy.route(key)\nb = policy.route\nc = fnv1a_64(key)\n"
        "d = self._policy.owner(route)\n"
    )
    assert len(_hash_sites(probe)) == 3
    (cls,) = [
        node for node in _parse(SERVICE_PY).body
        if isinstance(node, ast.ClassDef) and node.name == "ShardedService"
    ]
    methods = {
        node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)
    }
    for name in ("_serve_read", "_serve_writes"):
        assert not _hash_sites(methods[name]), (name, _hash_sites(methods[name]))


#: What ships a service configuration: the benchmark workloads, the
#: pinned claims, the determinism scenarios and the chaos schedules.
SELECTORS = (
    SRC.parents[1] / "benchmarks" / "perf" / "workloads.py",
    SRC.parents[1] / "benchmarks" / "test_service_claims.py",
    SRC.parents[1] / "scripts" / "check_determinism.py",
    SRC / "service" / "chaos.py",
)


def _names(paths):
    """Every attribute name and string constant in ``paths``."""
    found = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def test_every_service_mode_is_selected():
    """A mode with no workload, pinned claim or chaos scenario gets one
    or goes: every enum or bool option only the service layer reads
    must be set by at least one shipped selector."""
    service_reads = _names((SRC / "service").rglob("*.py"))
    engine_reads = _names(
        path for path in (SRC / "lsm").rglob("*.py")
        if path.name not in ("options.py", "options_doc.py")
    )
    modes = [
        spec.name for spec in CATALOG
        if spec.kind in (OptKind.ENUM, OptKind.BOOL)
        and spec.name in service_reads
        and spec.name not in engine_reads
    ]
    assert modes, "no service mode found; the reader scan is broken"
    selected = _names(SELECTORS)
    unselected = [name for name in modes if name not in selected]
    assert not unselected, (
        f"service modes no shipped workload, claim, determinism scenario "
        f"or chaos schedule selects: {unselected}"
    )
