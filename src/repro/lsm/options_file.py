"""RocksDB ``OPTIONS`` file format.

RocksDB persists its configuration as an ini file with sections like
``[DBOptions]`` and ``[CFOptions "default"]``. ELMo-Tune's loop is built
around this file: the prompt embeds it, the LLM edits it, the safeguard
vets it, and the benchmark runs with it. This module round-trips the
format.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import OptionsFileError
from repro.lsm.options import (
    CATALOG,
    Options,
    Section,
    known_option,
    spec_for,
)

_HEADER = (
    "# This is a PyLSM option file.\n"
    "# For the sake of compatibility the format mirrors RocksDB's OPTIONS "
    "file.\n"
)

_VERSION_SECTION = "Version"


def serialize_options(options: Options) -> str:
    """Render ``options`` as OPTIONS-file text: every catalog option
    appears (like RocksDB's dump)."""
    sections: dict[Section, list[str]] = {s: [] for s in Section}
    for spec in CATALOG:
        value = options.get(spec.name)
        sections[spec.section].append(f"  {spec.name}={_format_value(value)}")
    out = [_HEADER]
    out.append(f"[{_VERSION_SECTION}]")
    out.append("  pylsm_version=1.0")
    out.append("  options_file_version=1.1")
    out.append("")
    for section in (Section.DB, Section.CF, Section.TABLE):
        out.append(f"[{section.value}]")
        out.extend(sections[section])
        out.append("")
    return "\n".join(out)


def parse_options_text(
    text: str, *, strict: bool = True
) -> tuple[Options, list[str]]:
    """Parse OPTIONS-file text.

    Returns the parsed :class:`Options` plus a list of warnings (unknown
    options when ``strict`` is False; in strict mode unknown options
    raise :class:`OptionsFileError`).
    """
    options = Options()
    warnings: list[str] = []
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise OptionsFileError(f"line {lineno}: malformed section {line!r}")
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise OptionsFileError(f"line {lineno}: expected key=value, got {line!r}")
        if section == _VERSION_SECTION:
            continue
        if section is None:
            raise OptionsFileError(f"line {lineno}: key=value outside any section")
        name, _, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not known_option(name):
            if strict:
                raise OptionsFileError(
                    f"line {lineno}: unknown option {name!r} in [{section}]"
                )
            warnings.append(f"ignored unknown option {name!r} (line {lineno})")
            continue
        spec = spec_for(name)
        if section not in (spec.section.value, _loose_section(spec.section)):
            warnings.append(
                f"option {name!r} found in [{section}] but belongs to "
                f"[{spec.section.value}] (line {lineno})"
            )
        options.set(name, value)
    return options, warnings


def load_options_file(path: str, *, strict: bool = True) -> tuple[Options, list[str]]:
    """Parse an OPTIONS file from disk."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_options_text(f.read(), strict=strict)


def diff_as_text(before: Options, after: Options) -> str:
    """Human-readable option diff (used in prompts and reports)."""
    changes = before.diff(after)
    if not changes:
        return "(no changes)"
    lines = []
    for name in sorted(changes):
        old, new = changes[name]
        lines.append(f"{name}: {_format_value(old)} -> {_format_value(new)}")
    return "\n".join(lines)


def apply_changes(base: Options, changes: Iterable[tuple[str, Any]]) -> Options:
    """Return a copy of ``base`` with ``changes`` applied (validated)."""
    out = base.copy()
    for name, value in changes:
        out.set(name, value)
    return out


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _loose_section(section: Section) -> str:
    """Accept section headers without the CF name qualifier."""
    return section.value.split(" ")[0]
