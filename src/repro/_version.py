"""Single source of the package version.

Prefers installed-distribution metadata; falls back to parsing
``pyproject.toml`` when running from a source checkout (the common case
for this repository: ``PYTHONPATH=src python -m repro``).

The version is resolved only when something asks for it -- reading
``repro.__version__`` or passing ``--version`` -- because the metadata
lookup imports :mod:`importlib.metadata` and :mod:`email`, which no
other command needs.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

_FALLBACK = "0.0.0+unknown"


def _from_metadata() -> str:
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - py<3.8
        return ""
    try:
        return version("repro")
    except PackageNotFoundError:
        return ""


def _from_pyproject() -> str:
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        text = pyproject.read_text()
    except OSError:
        return ""
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE
    )
    return match.group(1) if match else ""


def package_version() -> str:
    """The repro package version string."""
    return _from_metadata() or _from_pyproject() or _FALLBACK


def __getattr__(name: str) -> str:
    if name == "__version__":
        return package_version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class VersionAction(argparse.Action):
    """``--version``: print ``<prog> <version>`` and exit.

    Like argparse's ``action="version"``, but the version is looked up
    when the flag is given, not when the parser is built.
    """

    def __init__(self, option_strings, dest=argparse.SUPPRESS,
                 default=argparse.SUPPRESS,
                 help="show program's version number and exit"):
        super().__init__(option_strings=option_strings, dest=dest,
                         default=default, nargs=0, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {package_version()}")
        parser.exit()
