"""Ruff keeps the checks simlint handed over to it.

simlint once carried SIM301 (bare ``except:``) and SIM402 (mutable
default arguments).  They were exact duplicates of ruff's E722 and
B006, which the CI ``ruff check src tests`` step runs, so they were
deleted.  This test pins the ruff configuration that stands behind the
deletion: both codes stay selected and nothing exempts ``src/`` from
them.
"""

import tomllib
from fnmatch import fnmatch
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"

#: The ruff codes that replaced the deleted simlint rules.
HANDED_OVER = {"E722": "SIM301", "B006": "SIM402"}

#: Sample paths a per-file-ignores glob must not match.
SRC_SAMPLES = ("src/repro/core/processor.py",
               "src/repro/harness/runner.py")


def _covers(selector: str, code: str) -> bool:
    """Does a ruff rule selector (``E``, ``B0``, ``E722``, ``ALL``)
    name ``code``?"""
    return selector == "ALL" or code.startswith(selector)


@pytest.fixture(scope="module")
def ruff_lint():
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["tool"]["ruff"]["lint"]


@pytest.mark.parametrize("code", sorted(HANDED_OVER))
def test_code_is_selected(ruff_lint, code):
    assert any(_covers(sel, code) for sel in ruff_lint["select"]), (
        f"ruff no longer selects {code}; simlint's "
        f"{HANDED_OVER[code]} was deleted in its favour"
    )


@pytest.mark.parametrize("code", sorted(HANDED_OVER))
def test_code_is_not_ignored(ruff_lint, code):
    ignored = [sel for sel in ruff_lint.get("ignore", [])
               if _covers(sel, code)]
    assert not ignored, f"ruff ignores {code} via {ignored}"


@pytest.mark.parametrize("code", sorted(HANDED_OVER))
def test_src_is_not_exempted(ruff_lint, code):
    per_file = ruff_lint.get("per-file-ignores", {})
    for pattern, selectors in sorted(per_file.items()):
        if not any(fnmatch(path, pattern) for path in SRC_SAMPLES):
            continue
        assert not any(_covers(sel, code) for sel in selectors), (
            f"per-file-ignores {pattern!r} exempts src/ from {code}"
        )
