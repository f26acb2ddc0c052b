"""Derivative-free bounded minimization and the model-fitting front ends.

Scalar objectives are minimized by a 32-point uniform grid multi-start,
evaluated in one batched call, followed by golden-section refinement of the
best bracket until it is narrower than 1e-8 of the box width; ties between
starts are broken toward the smaller parameter so repeated runs are
bit-identical.  Every model fitted here has one parameter.

The fit front ends validate their inputs once; the objective they minimize
calls the model's batched cell kernel directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cells import BinnedSample, as_prob_vector
from .divergence import _kl_modified_rows, _phd_rows, check_penalty_weight
from .errors import FitFailed, InvalidInput
from .models import DiscreteModel

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GRID_POINTS = 32


class ScalarMin(NamedTuple):
    x: float
    fun: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class FitResult:
    """Outcome of a bounded model fit."""

    theta_hat: np.ndarray
    objective: float
    evaluations: int
    converged: bool


def _minimize_rows(f_rows: Callable[[np.ndarray], np.ndarray], lo: float,
                   hi: float) -> ScalarMin:
    """Minimize on [lo, hi] an objective that maps a 1-D array of points to
    their values; returns the best point evaluated.

    The grid is one call on all its points, each golden-section step a call
    on one point.
    """
    if not lo < hi:
        raise InvalidInput(f"need lo < hi, got [{lo}, {hi}]")
    tol = 1e-8 * (hi - lo)

    evals = 0

    def fc(xs: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += xs.size
        v = np.asarray(f_rows(xs), dtype=float)
        return np.where(np.isnan(v), math.inf, v)

    def fc1(x: float) -> float:
        return float(fc(np.array([x]))[0])

    xs = np.linspace(lo, hi, GRID_POINTS)
    fs = fc(xs)
    if not np.any(np.isfinite(fs)):
        raise FitFailed("objective non-finite at every grid start")
    j = int(np.argmin(fs))  # first minimum = smallest x on ties
    best_x, best_f = float(xs[j]), float(fs[j])

    a = float(xs[max(j - 1, 0)])
    b = float(xs[min(j + 1, GRID_POINTS - 1)])
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fc1(x1), fc1(x2)
    for _ in range(200):
        if b - a < tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fc1(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fc1(x2)
    for x, v in ((x1, f1), (x2, f2)):
        if v < best_f or (v == best_f and x < best_x):
            best_x, best_f = float(x), float(v)
    return ScalarMin(best_x, best_f, evals, converged=(b - a) < tol)


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float) -> ScalarMin:
    """Minimize ``f`` on [lo, hi]; returns the best point evaluated.

    The search stops once the golden-section bracket is narrower than 1e-8
    of the box width.
    """
    return _minimize_rows(lambda xs: [f(x) for x in xs], lo, hi)


def _fit_to_frequencies(model: DiscreteModel,
                        objective_rows: Callable[[np.ndarray], np.ndarray]) -> FitResult:
    """Fit ``model`` by minimizing ``objective_rows``, which maps a (B, 1)
    parameter array to B objective values."""
    if model.k != 1:
        raise InvalidInput(f"only one-parameter models are supported, got k={model.k}")
    lo, hi = model.bounds[0]
    res = _minimize_rows(lambda ts: objective_rows(ts[:, None]), lo, hi)
    return FitResult(theta_hat=np.array([res.x]), objective=float(res.fun),
                     evaluations=res.evaluations, converged=res.converged)


def _target(model: DiscreteModel, p) -> np.ndarray:
    """``p`` validated as a probability vector on the cells of ``model``."""
    target = as_prob_vector(p)
    if target.size != model.partition.m:
        raise InvalidInput(f"target has {target.size} cells, model {model.partition.m}")
    return target


def fit_phd_to_probs(model: DiscreteModel, p: np.ndarray, h: float) -> FitResult:
    """Minimum penalized Hellinger fit of ``model`` to a probability vector
    (population version, used for pseudo-true parameters)."""
    h = check_penalty_weight(h)
    target = _target(model, p)
    occupied = target > 0.0
    root_p = np.sqrt(target[occupied])
    return _fit_to_frequencies(
        model, lambda th: _phd_rows(root_p, occupied, model.cell_fn(th), h)
    )


def minimize_phd(model: DiscreteModel, sample: BinnedSample, h: float) -> FitResult:
    """Minimum penalized Hellinger distance estimate from binned counts."""
    return fit_phd_to_probs(model, sample.frequencies(), h)


def mle_binned(model: DiscreteModel, sample: BinnedSample) -> FitResult:
    """Grouped-data maximum likelihood via the modified KL divergence."""
    phat = _target(model, sample.frequencies())
    occupied = phat > 0.0
    return _fit_to_frequencies(
        model, lambda th: _kl_modified_rows(phat, occupied, model.cell_fn(th))
    )
