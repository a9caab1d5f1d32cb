"""The boundary around ``ShardedService``, checked by ``ast`` so it
cannot rot — ``tests/lsm/test_db_shape.py``'s checks, pointed at the
service: nothing outside ``service/service.py`` reads a service's
private attributes, the policy/replication/overload/client modules do
not know the class that drives them, the class and the routing interface
do not grow back (lower the caps when a later PR shrinks them), and the
event heap keeps one push site.
"""

import ast

from tests.lsm.test_db_shape import SRC, _parse, class_shape, imported_modules

SERVICE_PY = SRC / "service" / "service.py"

MAX_PRIVATE_ATTRS = 20
MAX_METHODS = 36
MAX_POLICY_METHODS = 6
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
    for name in ("routing", "replication", "overload", "clients"):
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
