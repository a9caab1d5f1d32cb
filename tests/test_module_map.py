"""DESIGN.md §3's module map names every module, and only real ones."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


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
