"""``scripts/check_work.py`` pins call counts, so they must not depend
on the host: the same figures, function by function, under two hash
seeds (set iteration order and ``hash()`` of str and bytes change with
``PYTHONHASHSEED``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MEASURE_ALL = (
    "import json, check_work; "
    "print(json.dumps({name: check_work.measure(name) "
    "for name in check_work.workloads.WORKLOADS}))"
)


def test_figures_are_the_same_under_two_hash_seeds():
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", MEASURE_ALL],
            cwd=ROOT / "scripts",
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    first, second = (json.loads(out.splitlines()[-1]) for out in outputs)
    assert set(first) == {"fill", "readmix", "serve", "serve_repl", "tune"}
    assert first == second
