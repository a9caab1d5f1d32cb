"""Public-API sanity: exports exist, errors form one hierarchy."""

import ast
import pathlib

import pytest

import repro
from repro import errors


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_exports(self):
        from repro import DB, ElmoTune, Options, TunerConfig  # noqa: F401

    def test_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestPackageAlls:
    @pytest.mark.parametrize("module_name", [
        "repro.lsm", "repro.bench", "repro.llm", "repro.core",
        "repro.hardware", "repro.sim", "repro.obs", "repro.service",
        "repro.parallel",
    ])
    def test_every_all_entry_exists(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name) is not None, (module_name, name)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_error_messages_carry_context(self):
        err = errors.UnknownOptionError("bogus_option")
        assert "bogus_option" in str(err)
        assert err.name == "bogus_option"
        val = errors.InvalidOptionValueError("x", 5, "too small")
        assert val.reason == "too small"
        from repro.lsm.options import ensure_mutable

        with pytest.raises(errors.ImmutableOptionError) as raised:
            ensure_mutable("num_levels")
        assert raised.value.name == "num_levels"
        assert "num_levels" in str(raised.value)

    def test_value_error_only_for_argument_checks(self):
        """errors.py's rule: a ``raise ValueError`` sits in a constructor
        or under an ``if`` whose test reads a parameter of the enclosing
        function, or a local name bound from one."""
        package = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    offenders += [
                        f"{path.relative_to(package)}:{line}"
                        for line in _unchecked_value_errors(func)
                    ]
        assert offenders == []

    def test_catching_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.BenchmarkParseError("nope")


class TestOneMeasuringPlace:
    """How a configuration is measured is decided in one place each:
    which runner measures it, and what request stream it draws."""

    def test_one_function_builds_a_runner_for_a_one_shot_run(self):
        # OnlineTuner.run and the chaos harness hook a live service, so
        # they keep their own.
        assert _callers({"DbBench", "ShardedService"}) == {
            "service/service.py:run_benchmark",
            "core/online.py:OnlineTuner.run",
            "service/chaos.py:_build",
        }

    def test_one_generator_draws_the_request_stream(self):
        callers = _callers({"make_generator", "ValueGenerator"})
        assert {c for c in callers if not c.startswith("bench/keygen.py:")} == {
            "bench/runner.py:op_stream",
            "bench/runner.py:preload_stream",
        }


def _callers(names: set[str]) -> set[str]:
    """``module:Class.function`` of every call in the package to a name
    in ``names``; a call in a nested function counts for the function
    that encloses it."""
    package = pathlib.Path(repro.__file__).parent
    found = set()

    def visit(node, module: str, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            inner, nested = scope, in_function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and not in_function:
                inner = f"{scope}.{child.name}" if scope else child.name
                nested = not isinstance(child, ast.ClassDef)
            elif isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in names:
                    found.add(f"{module}:{scope}")
            visit(child, module, inner, nested)

    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path.relative_to(package).as_posix(), "", False)
    return found


def _is_value_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def _argument_names(func) -> set[str]:
    """The function's parameters plus every local name bound, directly
    or in turn, from an expression that reads one."""
    args = func.args
    names = {
        arg.arg
        for arg in args.posonlyargs + args.args + args.kwonlyargs
        + [a for a in (args.vararg, args.kwarg) if a]
    } - {"self", "cls"}
    bindings = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            bindings += [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.For, ast.comprehension)):
            bindings.append((node.target, node.iter))
    grew = True
    while grew:
        grew = False
        for target, value in bindings:
            reads = {n.id for n in ast.walk(value) if isinstance(n, ast.Name)}
            bound = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
            if reads & names and not bound <= names:
                names |= bound
                grew = True
    return names


def _unchecked_value_errors(func) -> list[int]:
    """Lines of this function's own ``raise ValueError`` statements that
    are neither in a constructor nor under an argument check."""
    if func.name in ("__init__", "__post_init__"):
        return []
    arguments = _argument_names(func)
    parents = {
        child: node
        for node in ast.walk(func)
        for child in ast.iter_child_nodes(node)
    }
    lines = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Raise) and _is_value_error(node)):
            continue
        child, parent, guarded = node, parents[node], False
        while parent is not func:
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                break  # a nested function is checked on its own
            if isinstance(parent, ast.If) and child is not parent.test:
                reads = {n.id for n in ast.walk(parent.test)
                         if isinstance(n, ast.Name)}
                guarded = guarded or bool(reads & arguments)
            child, parent = parent, parents[parent]
        else:
            if not guarded:
                lines.append(node.lineno)
    return lines
