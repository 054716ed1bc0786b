"""Smoke test: each script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chemlinker

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(script, tmp_path):
    src = str(Path(chemlinker.__file__).parents[1])
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
