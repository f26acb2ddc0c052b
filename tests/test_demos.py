"""Every demo script runs to completion and prints its narrative.

The demos are callers of the library, so a change that breaks one fails here.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
