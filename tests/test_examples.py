"""Every script under ``examples/`` runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")
SCRIPTS = sorted(name for name in os.listdir(EXAMPLES) if name.endswith(".py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
