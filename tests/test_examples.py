"""Every script in ``examples/`` runs to completion, in a few seconds.

Each example is imported, its ``main()`` is called, and one line it
prints is checked. README's examples table lists exactly these files.
"""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

#: The start of one line each example must print.
EXPECTED_LINE = {
    "custom_llm_backend": "Iteration 3 (the bad playbook entry) was reverted",
    "embedded_kv_store": 'recovered from WAL: {"name": "written-right-before-crash"}',
    "safeguards_demo": "All invariants hold despite the hostile model.",
}


def test_every_example_is_smoke_tested():
    assert sorted(p.stem for p in EXAMPLES.glob("*.py")) == sorted(EXPECTED_LINE)


def test_readme_table_lists_exactly_the_examples():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Script | Shows |", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `(\w+)\.py` \|", table, re.M)
    assert sorted(listed) == sorted(EXPECTED_LINE)


@pytest.mark.parametrize("name", sorted(EXPECTED_LINE))
def test_example_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(EXPECTED_LINE[name]) for line in lines), lines
