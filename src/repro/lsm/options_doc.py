"""Options reference generator.

Renders the full option catalog as Markdown — the PyLSM equivalent of
the RocksDB wiki's option listings the paper cites as the LLM's training
material. Regenerate ``docs/options-reference.md`` with::

    python -m repro.lsm.options_doc docs/options-reference.md
"""

from __future__ import annotations

import sys

from repro.lsm.options import CATALOG, OptKind, Section, format_size


def _fmt_default(spec) -> str:
    value = spec.default
    if isinstance(value, bool):
        return "`true`" if value else "`false`"
    if spec.kind is OptKind.INT and isinstance(value, int) and abs(value) >= 1024:
        return f"`{value}` ({format_size(value)})"
    return f"`{value}`"


def _fmt_range(spec) -> str:
    if spec.kind is OptKind.ENUM:
        return " \\| ".join(f"`{c}`" for c in spec.choices)
    if spec.kind is OptKind.BOOL:
        return "`true` \\| `false`"
    if spec.min is None and spec.max is None:
        return "—"
    lo = "−∞" if spec.min is None else f"{spec.min:g}"
    hi = "∞" if spec.max is None else f"{spec.max:g}"
    return f"[{lo}, {hi}]"


def _flags(spec) -> str:
    flags = []
    if spec.deprecated:
        flags.append("**deprecated**")
    if spec.sensitive:
        flags.append("**blacklisted**")
    if not spec.mutable and not spec.deprecated:
        flags.append("**immutable**")
    return ", ".join(flags) if flags else "—"


_SECTION_TITLES = {
    Section.DB: "Database options (`[DBOptions]`)",
    Section.CF: 'Column-family options (`[CFOptions "default"]`)',
    Section.TABLE: "Block-based table options "
                   '(`[TableOptions/BlockBasedTable "default"]`)',
}


def render_markdown() -> str:
    """Render the whole catalog as one Markdown document."""
    lines = [
        "# PyLSM Options Reference",
        "",
        "Auto-generated from `repro.lsm.options.CATALOG` "
        "(`python -m repro.lsm.options_doc`). "
        f"{len(CATALOG)} options across three sections "
        f"({sum(1 for s in CATALOG if s.mutable)} mutable). "
        "Options marked **blacklisted** are on ELMo-Tune's default "
        "safeguard blacklist; **deprecated** options parse but are "
        "rejected by the tuner. Options marked **immutable** cannot be "
        "changed on a live DB: `DB.set_options` (and the online tuner) "
        "rejects them, and changing them requires a reopen.",
        "",
    ]
    for section in (Section.DB, Section.CF, Section.TABLE):
        specs = [s for s in CATALOG if s.section is section]
        lines.append(f"## {_SECTION_TITLES[section]}")
        lines.append("")
        lines.append(f"{len(specs)} options.")
        lines.append("")
        lines.append("| Option | Type | Default | Range | Flags | Description |")
        lines.append("|---|---|---|---|---|---|")
        for spec in specs:
            description = spec.description.replace("|", "\\|")
            lines.append(
                f"| `{spec.name}` | {spec.kind.value} | {_fmt_default(spec)} "
                f"| {_fmt_range(spec)} | {_flags(spec)} | {description} |"
            )
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    from repro.obs import console

    args = argv if argv is not None else sys.argv[1:]
    text = render_markdown()
    if args:
        with open(args[0], "w", encoding="utf-8") as f:
            f.write(text + "\n")
        console.out(f"wrote {args[0]} ({len(text.splitlines())} lines)")
    else:
        console.out(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
