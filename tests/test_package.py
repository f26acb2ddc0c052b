"""The package surface: what ``import phdsel`` exports and loads."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import phdsel
from phdsel import (CellPartition, DiscreteModel, ExperimentConfig, InvalidInput,
                    InvalidParameter, MixtureDGP, chi2_quantile, default_partition,
                    empirical_frequencies, geometric_model, gof_test, model_select,
                    normal_cdf, normal_quantile, penalized_hellinger, poisson_model,
                    power_approx, required_sample_size, sample_mixture)

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

    def dkernel(theta, out):
        # the derivatives in the first parameter; a second has no place
        b = theta[:, 1:2]
        out[:] = np.hstack([b, 1.0 - b, -b, b - 1.0])

    bounds = ((0.1, 0.9), (0.1, 0.9))
    with pytest.raises(InvalidInput, match=re.escape(repr(bounds))):
        DiscreteModel(name="product", bounds=bounds,
                      partition=CellPartition(cuts=(0.0, 1.0, 2.0, 3.0, math.inf)),
                      kernel=kernel, dkernel=dkernel)


SAMPLE, _ = empirical_frequencies([0, 1, 2, 3, 3, 4, 4, 5, 6, 9], default_partition())
UNIFORM = np.full(8, 0.125)
# Each public scalar input: the call with the input set to a value, the
# argument's name as its error names it, a good numpy value, and the error.
SCALAR_INPUTS = {
    "gof_test.alpha": (lambda v: gof_test(SAMPLE, poisson_model(), 0.5, alpha=v),
                       "alpha", np.float64(0.05), InvalidInput),
    "gof_test.h": (lambda v: gof_test(SAMPLE, poisson_model(), v),
                   "h", np.float64(0.5), InvalidParameter),
    "model_select.alpha": (lambda v: model_select(SAMPLE, poisson_model(), geometric_model(),
                                                  0.5, alpha=v), "alpha", np.float64(0.05),
                           InvalidInput),
    "model_select.h": (lambda v: model_select(SAMPLE, poisson_model(), geometric_model(), v),
                       "h", np.float64(0.5), InvalidParameter),
    "penalized_hellinger.h": (lambda v: penalized_hellinger(UNIFORM, UNIFORM, v),
                              "h", np.float32(0.5), InvalidParameter),
    "power_approx.D": (lambda v: power_approx(v, 0.2, 100, 0.05, 5),
                       "D", np.float64(0.1), InvalidInput),
    "power_approx.omega_sq": (lambda v: power_approx(0.1, v, 100, 0.05, 5),
                              "omega_sq", np.float64(0.2), InvalidInput),
    "power_approx.n": (lambda v: power_approx(0.1, 0.2, v, 0.05, 5),
                       "n", np.int64(100), InvalidInput),
    "power_approx.alpha": (lambda v: power_approx(0.1, 0.2, 100, v, 5),
                           "alpha", np.float64(0.05), InvalidInput),
    "power_approx.df": (lambda v: power_approx(0.1, 0.2, 100, 0.05, v),
                        "df", np.int64(5), InvalidInput),
    "required_sample_size.D": (lambda v: required_sample_size(v, 0.2, 0.05, 0.8, 5),
                               "D", np.float64(0.1), InvalidInput),
    "required_sample_size.omega_sq": (lambda v: required_sample_size(0.1, v, 0.05, 0.8, 5),
                                      "omega_sq", np.float64(0.2), InvalidInput),
    "required_sample_size.alpha": (lambda v: required_sample_size(0.1, 0.2, v, 0.8, 5),
                                   "alpha", np.float64(0.05), InvalidInput),
    "required_sample_size.beta_star": (lambda v: required_sample_size(0.1, 0.2, 0.05, v, 5),
                                       "beta_star", np.float64(0.8), InvalidInput),
    "required_sample_size.df": (lambda v: required_sample_size(0.1, 0.2, 0.05, 0.8, v),
                                "df", np.int64(5), InvalidInput),
    "chi2_quantile.q": (lambda v: chi2_quantile(v, 6), "q", np.float64(0.95), InvalidInput),
    "chi2_quantile.df": (lambda v: chi2_quantile(0.95, v), "df", np.int64(6), InvalidInput),
    "normal_cdf.x": (lambda v: normal_cdf(v), "x", np.float64(0.5), InvalidInput),
    "normal_quantile.q": (lambda v: normal_quantile(v), "q", np.float64(0.5), InvalidInput),
    "sample_mixture.n": (lambda v: sample_mixture(MixtureDGP(pi=0.5), v,
                                                  np.random.default_rng(1)),
                         "n", np.int64(20), InvalidInput),
    "ExperimentConfig.pi": (lambda v: ExperimentConfig(pi=v), "pi", np.float64(0.5),
                            InvalidInput),
    "ExperimentConfig.alpha": (lambda v: ExperimentConfig(pi=0.5, alpha=v),
                               "alpha", np.float64(0.05), InvalidInput),
    "ExperimentConfig.sizes": (lambda v: ExperimentConfig(pi=0.5, sizes=(20, v)),
                               "sizes", np.int64(300), InvalidInput),
    "ExperimentConfig.reps": (lambda v: ExperimentConfig(pi=0.5, reps=v),
                              "reps", np.int64(3), InvalidInput),
    "ExperimentConfig.seed": (lambda v: ExperimentConfig(pi=0.5, seed=v),
                              "seed", np.int64(0), InvalidInput),
}


@pytest.mark.parametrize("value", ["0.5", None, True, math.nan, 10**400],
                         ids=["str", "None", "True", "nan", "1e400"])
@pytest.mark.parametrize("entry", sorted(SCALAR_INPUTS))
def test_scalar_input_is_refused_naming_it(entry, value):
    # a string, None, a bool, NaN or an integer beyond a double is refused
    # with the package's own error naming the argument, not a TypeError or
    # an OverflowError from deeper down or a silent answer
    call, name, good, error = SCALAR_INPUTS[entry]
    with pytest.raises(error, match=rf"\b{name} must be"):
        call(value)
    call(good)  # numpy scalars are numbers


TEST_LEVELS = sorted(entry for entry, (_, name, _, _) in SCALAR_INPUTS.items()
                     if name in ("alpha", "beta_star"))


@pytest.mark.parametrize("value", [1e-17, 1e-16, 2**-53])
@pytest.mark.parametrize("entry", TEST_LEVELS)
def test_test_level_whose_critical_level_rounds_to_one_is_refused(entry, value):
    # 1 - value / 2 rounds to 1 at or below 2**-53: the level is refused by
    # name at the entry point, not as a quantile level q deeper down
    call, name, _, error = SCALAR_INPUTS[entry]
    with pytest.raises(error, match=rf"\b{name} must be a number in \(0,1\) above 2\*\*-53"):
        call(value)
    call(1e-15)


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
