"""The package surface: what ``import phdsel`` exports and loads."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import phdsel
from phdsel import CellPartition, DiscreteModel, InvalidInput

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from phdsel import *", namespace)
    assert len(phdsel.__all__) == len(set(phdsel.__all__))
    for name in phdsel.__all__:
        assert namespace[name] is getattr(phdsel, name)


def test_two_parameter_model_is_rejected_at_construction():
    def kernel(theta, out):
        a, b = theta[:, :1], theta[:, 1:2]
        out[:] = np.hstack([a * b, a * (1.0 - b), (1.0 - a) * b])

    bounds = ((0.1, 0.9), (0.1, 0.9))
    with pytest.raises(InvalidInput, match=re.escape(repr(bounds))):
        DiscreteModel(name="product", bounds=bounds,
                      partition=CellPartition(cuts=(0.0, 1.0, 2.0, 3.0, math.inf)),
                      kernel=kernel)


CLI_SCRIPT = """
import contextlib, io, sys
import phdsel.cli

data = sys.argv[1]
for argv in (["estimate", "--data", data, "--model", "poisson"],
             ["gof", "--data", data, "--model", "geometric"],
             ["select", "--data", data, "--model1", "poisson", "--model2", "geometric"],
             ["equidistance"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert phdsel.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: no subcommand may load it
    data = tmp_path / "obs.txt"
    data.write_text("\n".join(str(v) for v in [0, 1, 2, 3, 3, 4, 4, 5, 6, 9]) + "\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", CLI_SCRIPT, str(data)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
