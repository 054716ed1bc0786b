"""The package version agrees with the project metadata."""

import re
from pathlib import Path

import chemlinker

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    # A regex, not tomllib: Python 3.10 has no tomllib.
    found = re.search(r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(),
                      re.MULTILINE)
    assert found and found.group(1) == chemlinker.__version__
