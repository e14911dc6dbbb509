"""Packaging metadata agrees with what CI actually tests."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _version(text: str) -> tuple:
    return tuple(int(part) for part in text.split("."))


def declared_floor() -> tuple:
    """The ``requires-python = ">=X.Y"`` floor in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=\s*([0-9.]+)"', text, re.M)
    assert match, "pyproject.toml declares no requires-python floor"
    return _version(match.group(1))


def ci_matrix_versions() -> list:
    """The ``python-version`` list of the CI test matrix."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    match = re.search(r"^\s*python-version:\s*\[([^\]]*)\]", text, re.M)
    assert match, "ci.yml has no python-version matrix"
    return [
        _version(item.strip().strip("'\""))
        for item in match.group(1).split(",")
        if item.strip()
    ]


def test_python_floor_is_the_lowest_tested_version():
    # A floor below the matrix advertises versions nobody runs (the
    # package needs 3.10 for dataclass slots); one above it tests
    # versions the package refuses to install on.
    assert declared_floor() == min(ci_matrix_versions())
