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
