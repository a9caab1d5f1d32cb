"""DESIGN.md §3's module map names every module, and only real ones;
every module, public name and public method is reached from an entry
point, and every knob is set by one."""

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
    # Public methods (``Class.method``) only tests call.
    "DB.compact_range": "tests drive a store to a compacted shape with "
    "it (whole or one key range) before checking snapshots, recovery, "
    "scans and corruption detection",
    "PerfModel.put_cost_us": "the reference formula "
    "test_batch_single_parity checks the inlined put pricing against",
    "SSTableBuilder.current_size": "the reference "
    "test_add_many_packed_split_size_matches_add_many checks the packed "
    "builder's split point against",
    "FaultFS.schedule_error": "tests inject an I/O error at a chosen "
    "operation to reach the error paths; the sweeps inject crashes only",
}

#: Knobs (``Owner.name``) no entry point sets, kept on purpose.
KEEP_UNSET = {
    "StoppingCriteria.patience": "the paper's minimal-improvement stop "
    "(PAPER.md §1, step 6)",
    "StoppingCriteria.minimal_gain": "the paper's minimal-improvement "
    "stop (PAPER.md §1, step 6)",
    "DbBench.env": "lets a test run a benchmark over a fault-injecting "
    "filesystem (test_crash_recovery)",
    "ReadStats.block_reads": "lets a test build one lookup's read record "
    "and price it (test_perf_model's price identity)",
    "SimClock.start_us": "lets a test start a clock mid-timeline",
    "DB.iterator.end": "the cursor's exclusive upper bound (RocksDB's "
    "iterate_upper_bound); test_db_iterator checks the file pruning it "
    "buys",
    "DB.scan.snapshot": "a scan at a pinned snapshot (RocksDB's "
    "ReadOptions.snapshot), the view test_scan_equivalence and "
    "test_snapshot compare with point gets",
    "WorkloadSpec.value_size": "test_keygen's "
    "test_spec_rejects_non_positive_value_size and test_crash_recovery's "
    "64-byte fill set sizes no paper workload uses",
    "replay_wal.strict": "ROADMAP item 7's all-or-nothing batches make "
    "strict replay raise on an orphaned continuation record",
    "run_session_tasks.max_workers": "the serial run is the reference "
    "test_serial_and_parallel_traces_identical compares the pool against",
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
        referenced = _referenced_names(_live_files(reached))
        unreferenced = {
            name
            for name, module in _public_names(reached)
            if module not in ALLOWED_UNREACHED and name not in referenced
        }
        kept = {name for name in KEEP_TEST_ONLY if "." not in name}
        assert sorted(unreferenced - kept) == []
        assert sorted(kept - unreferenced) == [], (
            "kept names an entry point now reaches"
        )
        assert all(reason.strip() for reason in KEEP_TEST_ONLY.values())


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) for each ``__init__`` field, in order."""
    fields = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            if any(
                kw.arg == "init" and getattr(kw.value, "value", True) is False
                for kw in value.keywords
            ):
                continue
        fields.append((stmt.target.id, value is not None))
    return fields


def _parameters(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, positional index) for each parameter with a default;
    keyword-only parameters have no index."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    first_default = len(positional) - len(args.defaults)
    knobs = [
        (arg.arg, index)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    knobs += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return knobs


def _live_files(reached: set[str]) -> list[pathlib.Path]:
    """Every reached module (packages only resolve names) and root."""
    return [
        MODULES[m] for m in sorted(reached) if not _is_package(m)
    ] + _root_files()


def _public_defs(reached: set[str]):
    """Top-level public classes and functions of the reached modules."""
    for module in sorted(reached):
        if not _is_package(module):
            for node in _tree(MODULES[module]).body:
                if isinstance(
                    node, (ast.ClassDef, ast.FunctionDef)
                ) and not node.name.startswith("_"):
                    yield node


def _knobs(reached: set[str]):
    """(owner, callee, name, positional index, is a field) for every
    defaulted field of a public dataclass and every defaulted parameter
    of a public function, ``__init__`` or public method."""
    for node in _public_defs(reached):
        if isinstance(node, ast.FunctionDef):
            for name, index in _parameters(node, bound=False):
                yield node.name, node.name, name, index, False
            continue
        if _is_dataclass(node):
            for index, (name, has_default) in enumerate(_dataclass_fields(node)):
                if has_default:
                    yield node.name, node.name, name, index, True
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            decorators = {ast.unparse(d) for d in fn.decorator_list}
            owner = f"{node.name}.{fn.name}"
            if fn.name == "__init__":
                callee, owner = node.name, node.name
            elif fn.name.startswith("_") or "property" in decorators:
                continue
            elif owner in KEEP_TEST_ONLY:
                continue  # its parameters are its test's to set
            else:
                callee = fn.name
            bound = "staticmethod" not in decorators
            for name, index in _parameters(fn, bound):
                yield owner, callee, name, index, False


class _CallSites(ast.NodeVisitor):
    """What the files pass, by callee name: keywords, the widest
    positional prefix, and whether any call spreads ``*``/``**``
    arguments. ``cls(...)`` and ``super().__init__(...)`` resolve to the
    enclosing class and its bases; an attribute store (``x.name = v``,
    not on ``self``) sets a dataclass field of that name."""

    def __init__(self) -> None:
        self.keywords: dict[str, set[str]] = {}
        self.positional: dict[str, int] = {}
        self.spread: set[str] = set()
        self.stores: set[str] = set()
        self.bases: dict[str, list[str]] = {}
        self._classes: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bases[node.name] = [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) != "self":
            self.stores.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        here = self._classes[-1] if self._classes else None
        if isinstance(func, ast.Name):
            callees = [here if func.id == "cls" and here else func.id]
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"
        ):
            callees = self.bases.get(here, [])
        elif isinstance(func, ast.Attribute):
            callees = [func.attr]
        else:
            callees = []
        positional = sum(not isinstance(a, ast.Starred) for a in node.args)
        for callee in callees:
            self.keywords.setdefault(callee, set()).update(
                kw.arg for kw in node.keywords if kw.arg is not None
            )
            self.positional[callee] = max(self.positional.get(callee, 0), positional)
            if any(kw.arg is None for kw in node.keywords) or positional < len(node.args):
                self.spread.add(callee)
        self.generic_visit(node)


def _unset_knobs() -> set[str]:
    """``Owner.name`` for every knob no root and no reached module
    sets. A dataclass field also counts as set through a subclass
    call or ``dataclasses.replace(..., name=)``."""
    reached = _reached()
    sites = _CallSites()
    for path in _live_files(reached):
        sites.visit(_tree(path))
    subclasses: dict[str, set[str]] = {}
    for cls, bases in sites.bases.items():
        for base in bases:
            subclasses.setdefault(base, set()).add(cls)

    def callees(name: str) -> set[str]:
        found = {name}
        for sub in subclasses.get(name, ()):
            found |= callees(sub)
        return found

    unset = set()
    for owner, callee, name, index, is_field in _knobs(reached):
        targets = callees(callee) if is_field else {callee}
        passed = any(
            target in sites.spread
            or name in sites.keywords.get(target, ())
            or (index is not None and sites.positional.get(target, 0) > index)
            for target in targets
        )
        if is_field:
            passed = passed or name in sites.stores or name in sites.keywords.get(
                "replace", ()
            )
        if not passed:
            unset.add(f"{owner}.{name}")
    return unset


def _uncalled_methods() -> set[str]:
    """``Class.method`` for every public method or property of a public
    class no root and no reached module reads, matched by name."""
    reached = _reached()
    referenced = _referenced_names(_live_files(reached))
    return {
        f"{node.name}.{fn.name}"
        for node in _public_defs(reached)
        if isinstance(node, ast.ClassDef)
        for fn in node.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in referenced
    }


class TestSettableMeansSet:
    """A knob nothing sets is a constant in disguise, and a method
    nothing calls is code carried for its own test: each becomes a
    constant or leaves, or is listed above with the reason it stays.
    Callees and attributes are matched by name, as the public-name
    census matches reads."""

    def test_every_knob_is_set(self):
        unset = _unset_knobs()
        assert sorted(unset - set(KEEP_UNSET)) == []
        assert sorted(set(KEEP_UNSET) - unset) == [], (
            "kept knobs an entry point now sets"
        )
        assert all(reason.strip() for reason in KEEP_UNSET.values())

    def test_every_public_method_is_called(self):
        uncalled = _uncalled_methods()
        kept = {name for name in KEEP_TEST_ONLY if "." in name}
        assert sorted(uncalled - kept) == []
        assert sorted(kept - uncalled) == [], (
            "kept methods an entry point now calls"
        )
