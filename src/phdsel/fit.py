"""Derivative-free bounded minimization and the model-fitting front ends.

Every fit minimizes R independent one-parameter objectives in lockstep:

* a 32-point uniform grid multi-start, evaluated for all R rows in one call
  on an (R, 32) array of points;
* golden-section refinement of each row's best bracket, one call on an
  (R, 1) array per step, until the row's bracket is narrower than 1e-8 of
  the box width.  Rows whose bracket has closed still ride along in the
  later calls, but their state is frozen when it closes.

Ties between starts are broken toward the smaller parameter.  The objective
of row r may depend only on row r's points, so row r of an R-row fit is
bit-identical to the fit of that row alone.  The scalar front ends
(``minimize_scalar``, ``fit_phd_to_probs``, ``minimize_phd``,
``mle_binned``) are the R = 1 call of the same minimizer.

Rows are minimized in chunks of ``CHUNK_ROWS``: the grid call of a chunk
holds (CHUNK_ROWS * 32, m) cell probabilities, and the Poisson kernel holds
about 176 cumulative terms per point at its rate bound, so an unchunked
10,000-row study would build arrays of about 450 MB.  Every model fitted
here has one parameter.

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
MAX_STEPS = 200
CHUNK_ROWS = 128
_BRACKET = np.array([[-1], [1]])  # grid neighbours of the best start


class ScalarMin(NamedTuple):
    x: float
    fun: float
    evaluations: int
    converged: bool
    at_bound: bool


@dataclass(frozen=True)
class FitResult:
    """Outcome of a bounded model fit.

    ``at_bound`` is set when the estimate lies within the stopping tolerance
    (1e-8 of the box width) of a bound of the box: the box, not the data,
    stopped the search, even when ``converged`` is true.
    """

    theta_hat: np.ndarray
    objective: float
    evaluations: int
    converged: bool
    at_bound: bool


class FitRows(NamedTuple):
    """Outcome of an R-row minimization, one array entry per row."""

    x: np.ndarray
    fun: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    at_bound: np.ndarray

    def fit(self, r: int) -> FitResult:
        """Row ``r`` as the FitResult of a one-parameter fit."""
        return FitResult(theta_hat=np.array([self.x[r]]), objective=float(self.fun[r]),
                         evaluations=int(self.evaluations[r]),
                         converged=bool(self.converged[r]),
                         at_bound=bool(self.at_bound[r]))


# Maps a slice of the problem's rows to the objective of those rows: a
# function from an (r, k) array of points to their (r, k) values, whose row i
# may depend only on row i of the points.
RowObjective = Callable[[slice], Callable[[np.ndarray], np.ndarray]]


def _lockstep(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              rows: int) -> FitRows:
    """Minimize ``rows`` objectives on [lo, hi] at once; ``f`` maps an
    (rows, k) array of points to their (rows, k) values."""
    tol = 1e-8 * (hi - lo)
    xs = np.linspace(lo, hi, GRID_POINTS)
    fs = f(np.broadcast_to(xs, (rows, GRID_POINTS)))
    if not np.isfinite(fs).any(axis=1).all():
        raise FitFailed("objective non-finite at every grid start")
    j = np.argmin(fs, axis=1)  # first minimum = smallest x on ties

    # cand holds (x, f) of the best grid point and of the two interior
    # points as they were when the row's bracket closed, one entry per row
    cand = np.empty((3, 2, rows))
    cand[0, 0], cand[0, 1] = xs[j], np.minimum.reduce(fs, axis=1)
    final = cand[1:]
    # The state is updated in place, on every row at every step: ab holds
    # the bracket (a, b); pts holds (x, f) of the lower interior point x1,
    # the upper one x2 and the newest evaluation.
    ab = xs[np.minimum(np.maximum(j + _BRACKET, 0), GRID_POINTS - 1)]
    a, b = ab
    w = b - a
    pts = np.empty((3, 2, rows))
    interior, interior_x = pts[:2], pts[:2, 0]
    x1, f1, x2, f2, x_new, f_new = pts.reshape(6, rows)
    np.subtract(b, w * GOLDEN, out=x1)
    np.add(a, w * GOLDEN, out=x2)
    interior[:, 1] = f(interior_x.T).T
    # the interior points after a step that keeps [a, x2] / [x1, b]
    after_left, after_right = pts[2::-2], pts[1:]

    # No bracket can close within the first `safe` steps, so they skip the
    # check: each step shrinks a bracket by GOLDEN, up to rounding errors of
    # a few ulps of the coordinates, which a box not far from the origin
    # keeps far below the margin of two steps.
    safe = 0
    if max(abs(lo), abs(hi)) <= 1e3 * (hi - lo):
        safe = max(int(math.log(tol / np.minimum.reduce(w)) / math.log(GOLDEN)) - 2, 0)
    side = np.empty((2, rows), dtype=bool)
    right, left = side  # the minimum lies in [x1, b] / in [a, x2]
    closed = np.zeros(rows, dtype=bool)
    steps = np.empty(rows, dtype=int)
    for step in range(MAX_STEPS + 1):
        if step >= safe and np.minimum.reduce(w) < tol:
            shut = (w < tol) & ~closed
            if shut.any():
                closed |= shut
                steps[shut] = step
                np.copyto(final, interior, where=shut)
                if closed.all():
                    break
        if step == MAX_STEPS:
            break
        np.less_equal(f1, f2, out=left)
        np.logical_not(left, out=right)
        np.copyto(ab, interior_x, where=side)  # a <- x1 where right, b <- x2 where left
        np.subtract(b, a, out=w)
        gw = w * GOLDEN
        np.subtract(b, gw, out=x_new)
        np.copyto(x_new, a + gw, where=right)
        f_new[:] = f(x_new[:, None])[:, 0]
        interior[:] = np.where(left, after_left, after_right)
    if not closed.all():  # rows still open after MAX_STEPS steps
        steps[~closed] = MAX_STEPS
        np.copyto(final, interior, where=~closed)

    # the best candidate: least value, then least x
    best_f = np.minimum.reduce(cand[:, 1])
    best_x = np.minimum.reduce(np.where(cand[:, 1] == best_f, cand[:, 0], np.inf))
    at_bound = np.minimum(best_x - lo, hi - best_x) <= tol
    return FitRows(best_x, best_f, GRID_POINTS + 2 + steps, closed, at_bound)


def _minimize_rows(objective: RowObjective, lo: float, hi: float, rows: int) -> FitRows:
    """Minimize ``rows`` independent objectives on [lo, hi]; returns each
    row's best point evaluated.

    Rows are minimized CHUNK_ROWS at a time, each chunk with the objective
    ``objective`` gives for its slice of rows.
    """
    if not lo < hi:
        raise InvalidInput(f"need lo < hi, got [{lo}, {hi}]")
    parts = []
    for start in range(0, rows, CHUNK_ROWS):
        sl = slice(start, min(start + CHUNK_ROWS, rows))
        parts.append(_lockstep(objective(sl), lo, hi, sl.stop - sl.start))
    if len(parts) == 1:
        return parts[0]
    return FitRows(*(np.concatenate(column) for column in zip(*parts)))


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float) -> ScalarMin:
    """Minimize ``f`` on [lo, hi]; returns the best point evaluated.

    The search stops once the golden-section bracket is narrower than 1e-8
    of the box width.  NaN values count as +inf.
    """
    def values(xs: np.ndarray) -> np.ndarray:
        v = np.array([[f(x) for x in row] for row in xs], dtype=float)
        return np.where(np.isnan(v), math.inf, v)

    res = _minimize_rows(lambda sl: values, lo, hi, 1)
    return ScalarMin(float(res.x[0]), float(res.fun[0]), int(res.evaluations[0]),
                     bool(res.converged[0]), bool(res.at_bound[0]))


def _fit_rows(model: DiscreteModel, objective: RowObjective, rows: int) -> FitRows:
    """Fit ``model`` to ``rows`` data rows by minimizing ``objective``."""
    if model.k != 1:
        raise InvalidInput(f"only one-parameter models are supported, got k={model.k}")
    lo, hi = model.bounds[0]
    return _minimize_rows(objective, lo, hi, rows)


def _cells(model: DiscreteModel, theta: np.ndarray) -> np.ndarray:
    """(r, k) parameter points -> their (r, k, m) cell probabilities."""
    return model.cell_fn(theta.reshape(-1, 1)).reshape(theta.shape + (-1,))


def _fit_phd_rows(model: DiscreteModel, phat: np.ndarray, h: np.ndarray) -> FitRows:
    """Minimum penalized Hellinger fits of ``model`` to each row of the
    (R, m) frequency array ``phat``, row r with penalty weight ``h[r]``.

    No validation: each row must be a probability vector on the model's
    cells and each weight finite and positive.
    """
    rows = phat.shape[0]
    root_p = np.sqrt(phat)[:, None, :]
    occupied = (phat > 0.0)[:, None, :]
    weight = np.empty((rows, 1, 1))
    weight[:, 0, 0] = h

    def objective(sl: slice) -> Callable[[np.ndarray], np.ndarray]:
        rp, occ, wt = root_p[sl], occupied[sl], weight[sl]
        return lambda th: _phd_rows(rp, occ, _cells(model, th), wt)

    return _fit_rows(model, objective, rows)


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
    return _fit_phd_rows(model, target[None, :], h).fit(0)


def minimize_phd(model: DiscreteModel, sample: BinnedSample, h: float) -> FitResult:
    """Minimum penalized Hellinger distance estimate from binned counts."""
    return fit_phd_to_probs(model, sample.frequencies(), h)


def mle_binned(model: DiscreteModel, sample: BinnedSample) -> FitResult:
    """Grouped-data maximum likelihood via the modified KL divergence."""
    phat = _target(model, sample.frequencies())
    occupied = phat > 0.0
    m = phat.size

    def objective(th: np.ndarray) -> np.ndarray:
        q = _cells(model, th).reshape(-1, m)
        return _kl_modified_rows(phat, occupied, q).reshape(th.shape)

    return _fit_rows(model, lambda sl: objective, 1).fit(0)
