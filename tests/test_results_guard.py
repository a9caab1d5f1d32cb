"""benchmarks/common.py:write_result fails on a stale or missing
committed result, after rewriting it, and passes on a match."""

import os

import pytest

from benchmarks import common


@pytest.fixture
def results(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    return tmp_path


def test_identical_text_passes_and_leaves_the_file_untouched(results):
    path = results / "table.txt"
    path.write_text("a\nb\n", encoding="utf-8")
    os.utime(path, (0, 0))
    common.write_result("table", "a\nb")
    assert path.read_text(encoding="utf-8") == "a\nb\n"
    assert path.stat().st_mtime == 0


def test_differing_text_rewrites_the_file_and_names_file_and_line(results):
    path = results / "table.txt"
    path.write_text("a\nb\nc\n", encoding="utf-8")
    with pytest.raises(AssertionError, match=r"table\.txt is stale at line 2") as err:
        common.write_result("table", "a\nB\nc")
    assert "was: b" in str(err.value) and "now: B" in str(err.value)
    assert path.read_text(encoding="utf-8") == "a\nB\nc\n"


def test_a_longer_text_fails_at_the_first_extra_line(results):
    (results / "table.txt").write_text("a\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="at line 2"):
        common.write_result("table", "a\nb")


def test_missing_file_is_written_and_fails(results):
    with pytest.raises(AssertionError, match=r"table\.txt was missing"):
        common.write_result("table", "a")
    assert (results / "table.txt").read_text(encoding="utf-8") == "a\n"
