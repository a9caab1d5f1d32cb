"""The boundary around ``DB``, checked by ``ast`` so it cannot rot.

``DB`` is the one class every layer holds a handle to, so it is where
state and reach-ins pile up. These tests pin five structural facts:
nothing outside ``lsm/db.py`` reads a DB's private attributes, the
background scheduler does not know the class that drives it, the
class does not grow back past the size the scheduler extraction left
it at (lower the caps when a later decomposition shrinks it further),
every write commits through the one ``_write``, and the engine and the
service run on one host thread: concurrency is modelled in virtual
time, and ``repro.parallel`` is the one host-parallel package.
"""

import ast
import inspect
import re
from pathlib import Path

from repro.lsm.db import DB
from repro.service.replication import open_group

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
DB_PY = SRC / "lsm" / "db.py"

MAX_PRIVATE_ATTRS = 47
MAX_METHODS = 76


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_db_handle(node):
    """``db``, ``_db``, ``rep_db``, ``shard.db``, ``self._db``, ...: every
    name ``src/`` binds a DB to ends in ``db``."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name in ("db", "_db") or name.endswith("_db")


def _private_reads_through_db(tree):
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and _is_db_handle(node.value)
    ]


def test_the_detector_sees_each_spelling():
    tree = ast.parse(
        "a = db._mem\nb = self._db._imm\nc = shard.db._wal\n"
        "d = rep.db._seq\ne = rep_db._bg\nf = db.memtables\ng = db.__class__\n"
    )
    assert len(_private_reads_through_db(tree)) == 5


def test_no_module_outside_db_py_reads_db_privates():
    offenders = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if path != DB_PY and (found := _private_reads_through_db(_parse(path)))
    }
    assert not offenders, (
        f"private DB state read outside lsm/db.py: {offenders}; "
        "add a public read-only accessor to DB instead"
    )


def imported_modules(tree):
    """Every dotted name a module's import statements could bind."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def class_shape(tree, name):
    """(method names, private attributes stored through ``self``)."""
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == name
    ]
    methods = {
        node.name for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    attrs = {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
    }
    return methods, attrs


def test_background_does_not_import_db():
    assert "repro.lsm.db" not in imported_modules(
        _parse(SRC / "lsm" / "background.py")
    )


def test_compaction_jobs_read_through_the_table_cache():
    """A compaction job reads the readers the DB fetched from the table
    cache: it constructs no reader of its own, and its spec carries no
    file handles to build one from."""
    tree = _parse(SRC / "lsm" / "background.py")
    (job,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "execute_compaction_job"
    ]
    calls = {
        ast.unparse(node.func)
        for node in ast.walk(job) if isinstance(node, ast.Call)
    }
    assert not {c for c in calls if c.split(".")[-1] == "SSTableReader"}, calls
    (spec,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "CompactionJobSpec"
    ]
    fields = {
        node.target.id for node in spec.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }
    assert "readers" in fields
    assert not fields & {"input_files", "verify_checksums"}, fields


def test_db_does_not_outgrow_its_shape():
    methods, attrs = class_shape(_parse(DB_PY), "DB")
    assert len(attrs) <= MAX_PRIVATE_ATTRS, sorted(attrs)
    assert len(methods) <= MAX_METHODS, sorted(methods)


#: Callees that insert into a memtable or append to a WAL: the bound
#: plan members (``mem_add``, ``wal_append``), ``self._mem.add`` and the
#: ``WalWriter`` record appenders.
_DATA_PATH_CALL = re.compile(r"(mem_add|_mem\.add|add_records?|_append)$")


def _db_methods():
    (cls,) = [
        node for node in _parse(DB_PY).body
        if isinstance(node, ast.ClassDef) and node.name == "DB"
    ]
    return {
        node.name: node for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }


def _touches_write_path(method):
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "_write_plan"
            and isinstance(node.ctx, ast.Load)
        ):
            return True
        if isinstance(node, ast.Call) and _DATA_PATH_CALL.search(
            ast.unparse(node.func)
        ):
            return True
    return False


def test_every_write_commits_through_one_write():
    methods = _db_methods()
    # _recover replays old WALs into the memtable and a fresh WAL: that
    # is recovery, not the write path.
    assert {
        name for name, method in methods.items()
        if _touches_write_path(method)
    } == {"_write", "_recover"}
    for name in ("put", "delete", "write"):
        body = methods[name].body
        if isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant
        ):
            body = body[1:]  # the docstring
        *validation, last = body
        assert isinstance(last, ast.Return), name
        assert ast.unparse(last.value.func) == "self._write", name
        # Validation only: nothing before the commit calls anything but
        # the error it raises.
        called = {
            ast.unparse(node.func)
            for stmt in validation for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
        }
        assert called <= {"DBError"}, (name, called)


def test_engine_and_service_have_no_host_concurrency():
    offenders = {
        str(path.relative_to(SRC)): sorted(found)
        for layer in ("lsm", "service")
        for path in sorted((SRC / layer).rglob("*.py"))
        if (found := {
            module for module in imported_modules(_parse(path))
            if module.split(".")[0] == "threading"
            or module.startswith("concurrent.futures")
        })
    }
    assert not offenders, (
        f"host concurrency imported under lsm/ or service/: {offenders}; "
        "background work runs at submit and overlaps in virtual time only"
    )


def test_no_executor_is_threaded_through_open():
    for opener in (DB.open, DB.__init__, open_group):
        assert "executor" not in inspect.signature(opener).parameters, opener
