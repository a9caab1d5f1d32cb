"""DESIGN.md §3's module map names every module, and only real ones;
every module and public name is reached from an entry point."""

import ast
import functools
import pathlib
import re

from tests.test_examples import EXPECTED_LINE as SMOKE_TESTED_EXAMPLES

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def _mapped_files() -> set[str]:
    """Paths (relative to ``src/repro``) of every file the map lists.

    The map is the first fenced block under the §3 heading; nesting is
    by indentation, and a line whose first word ends neither in ``.py``
    nor ``/`` continues the description above it.
    """
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## 3.", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    assert lines[0].strip() == "src/repro/"
    files: set[str] = set()
    dirs: list[tuple[int, str]] = []
    for line in lines[1:]:
        name = line.split()[0]
        if not name.endswith((".py", "/")):
            continue
        indent = len(line) - len(line.lstrip())
        while dirs and dirs[-1][0] >= indent:
            dirs.pop()
        path = "".join(d for _, d in dirs) + name
        if name.endswith("/"):
            dirs.append((indent, name))
        else:
            files.add(path)
    return files


def test_every_module_is_in_the_map_and_every_mapped_file_exists():
    actual = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }
    mapped = _mapped_files()
    assert sorted(actual - mapped) == [], "modules missing from the map"
    assert sorted(mapped - actual) == [], "mapped files that do not exist"


#: Modules no entry point imports, kept on purpose.
ALLOWED_UNREACHED = {
    "repro.obs.replay": "ROADMAP item 2's trace-diff, trace-explain and "
    "session-explain build on it",
    "repro.lsm.options_doc": "renders docs/options-reference.md, which "
    "test_doc_in_repo_is_current keeps current",
}

#: Public names only tests reach, kept because a test uses them as the
#: oracle for behaviour an entry point does reach.
KEEP_TEST_ONLY = {
    "__version__": "the package's version string; test_version reads it",
    "mutable_option_names": "parametrizes test_set_options over every "
    "option DB.set_options accepts",
    "known_properties": "test_all_known_properties_resolve checks "
    "DB.get_property against every fixed property",
    "shard_for_key": "the reference test_matches_legacy_router_bit_for_bit "
    "checks ModuloPolicy's routing against",
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in PACKAGE.rglob("*.py")}


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


@functools.cache
def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _resolve(module: str, name: str) -> str:
    """The module that defines ``name`` imported from ``module``: a
    submodule, the module a package ``__init__`` re-exports it from, or
    ``module`` itself."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if _is_package(module):
        for node in _tree(MODULES[module]).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _resolve(node.module, alias.name)
    return module


def _imports(path: pathlib.Path) -> set[str]:
    """The ``repro`` modules a file imports, each name resolved to the
    module that defines it (so a package re-export reaches one module,
    not the whole package)."""
    found: set[str] = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name in MODULES}
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            found |= {_resolve(node.module, alias.name) for alias in node.names}
    return found


def _entry_points() -> list[str]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'^[\w-]+ = "([\w.]+):\w+"$', scripts, re.M)


def _root_files() -> list[pathlib.Path]:
    """The console scripts, every benchmark and script, and every
    example that runs as a smoke test."""
    files = [MODULES[module] for module in _entry_points()]
    for directory in ("benchmarks", "scripts"):
        files += sorted((ROOT / directory).rglob("*.py"))
    return files + [
        ROOT / "examples" / f"{name}.py" for name in sorted(SMOKE_TESTED_EXAMPLES)
    ]


def _reached() -> set[str]:
    """Every module the roots import, directly or through other reached
    modules. A package counts as reached with any of its modules; its
    ``__init__`` only resolves names, so its imports are not followed."""
    todo = set(_entry_points())
    for path in _root_files():
        todo |= _imports(path)
    reached: set[str] = set()
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        if not _is_package(module):
            todo |= _imports(MODULES[module])
    for module in list(reached):
        while "." in module:
            module = module.rsplit(".", 1)[0]
            reached.add(module)
    return reached


def _referenced_names(paths) -> set[str]:
    """Every name the files read: a loaded variable, an attribute, or
    an imported name. Definitions and assignments do not count."""
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _public_names(reached: set[str]) -> set[tuple[str, str]]:
    """(name, defining module) for every package ``__all__`` entry and
    every top-level function, class and constant of a reached module."""
    names: set[tuple[str, str]] = set()
    for module in sorted(MODULES):
        tree = _tree(MODULES[module])
        if _is_package(module):
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__"
                    for target in node.targets
                ):
                    for name in ast.literal_eval(node.value):
                        names.add((name, _resolve(module, name)))
        elif module in reached:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add((node.name, module))
                elif isinstance(node, ast.Assign):
                    names |= {
                        (target.id, module)
                        for target in node.targets
                        if isinstance(target, ast.Name)
                    }
                elif isinstance(node, ast.AnnAssign):
                    names.add((node.target.id, module))
    return names


class TestReachability:
    """The roots are the ``[project.scripts]`` targets, every ``.py``
    under ``benchmarks/`` and ``scripts/``, and the examples
    tests/test_examples.py runs. Code only
    tests reach is carried for its own tests, so it leaves, or it is
    listed above with the reason it stays."""

    def test_every_module_is_reached(self):
        reached = _reached()
        unreached = {m for m in MODULES if m not in reached}
        assert sorted(unreached - set(ALLOWED_UNREACHED)) == []
        assert sorted(set(ALLOWED_UNREACHED) - unreached) == [], (
            "allowed-unreached modules an entry point now reaches"
        )
        assert all(reason.strip() for reason in ALLOWED_UNREACHED.values())

    def test_every_public_name_is_referenced(self):
        reached = _reached()
        live = [MODULES[m] for m in reached if not _is_package(m)]
        referenced = _referenced_names(live + _root_files())
        unreferenced = {
            name
            for name, module in _public_names(reached)
            if module not in ALLOWED_UNREACHED and name not in referenced
        }
        assert sorted(unreferenced - set(KEEP_TEST_ONLY)) == []
        assert sorted(set(KEEP_TEST_ONLY) - unreferenced) == [], (
            "kept names an entry point now reaches"
        )
        assert all(reason.strip() for reason in KEEP_TEST_ONLY.values())
