"""The sanctioned console-output helper.

Every human-facing diagnostic in ``src/repro`` goes through here — the
CLIs' reports, warnings from the options-file loader, the doc
generator's status line. Centralizing stdout/stderr gives ``--quiet``
one switch to flip and keeps ad-hoc ``print()`` calls out of library
code; ``scripts/check.sh`` fails the build on any direct ``print(`` in
``src/repro`` outside this module.
"""

from __future__ import annotations

import sys

_quiet = False


def set_quiet(quiet: bool) -> None:
    """Suppress (or restore) informational stdout output."""
    global _quiet
    _quiet = quiet


def out(message: str = "") -> None:
    """Informational stdout line; silenced by ``--quiet``."""
    if not _quiet:
        print(message)


def warn(message: str) -> None:
    """Warning/error line on stderr; never silenced."""
    print(message, file=sys.stderr)
