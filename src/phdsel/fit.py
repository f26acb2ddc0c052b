"""Derivative-free bounded minimization and the model-fitting front ends.

Every fit minimizes R independent one-parameter objectives in lockstep,
row r on its own box:

* a 32-point uniform grid multi-start, its values taken from the model's
  grid cells, evaluated once per model (``_start_cells``);
* golden-section refinement of each row's best bracket: one call for each
  of the first bracket's two golden points, then one per step, each on an
  (R,) array of one point per row, for 33 steps on every row, which take a
  first bracket of two grid spacings, or of one at a box end, below 1e-8 of
  the box width.

Ties between starts are broken toward the smaller parameter.  The objective
of row r may depend only on row r's point, so row r of an R-row fit is
bit-identical to the fit of that row alone.  The scalar front ends
(``fit_phd_to_probs``, ``minimize_phd``, ``mle_binned``) are the R = 1 call
of the same minimizer.

A fit minimizes exactly the rows it is given, in one lockstep call; callers
with many rows pass them in slices (``phdsel.simulate.run_experiment``).
One call can fit several models to the same rows (``_fit_phd_rows``), which
costs one loop of numpy calls instead of one per model.  Every model fitted
here has one parameter.

The fit front ends validate their inputs once; the objective they minimize
calls the models' batched cell kernels directly, into one cell array per
fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cells import BinnedSample, as_prob_vector
from .divergence import _kl_modified_rows, _phd_rows, check_penalty_weight
from .errors import FitFailed, InvalidInput
from .models import DiscreteModel, _residual_last

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GRID_POINTS = 32
# the golden steps that take a first bracket of two grid spacings below the
# tolerance of 1e-8 of the box width: ceil(log(31e-8 / 2) / log(GOLDEN))
STEPS = 33
EVALUATIONS = GRID_POINTS + 2 + STEPS  # every row's: grid, golden pair, steps
_BRACKET = np.array([[-1], [1]])  # grid neighbours of the best start


@dataclass(frozen=True)
class FitResult:
    """Outcome of a bounded model fit.

    ``evaluations`` counts the points evaluated for the row: its 32 grid
    starts, whose values come from the start cells, the first bracket's two
    golden points, then one per golden step, 67 (``EVALUATIONS``).  ``converged``
    reports whether the final bracket is narrower than the stopping
    tolerance, 1e-8 of the box width.
    ``at_bound`` is set when the estimate lies within that tolerance of a
    bound of the box: the box, not the data, stopped the search, even when
    ``converged`` is true.
    """

    theta_hat: np.ndarray
    objective: float
    evaluations: int
    converged: bool
    at_bound: bool


class FitRows(NamedTuple):
    """Outcome of an R-row minimization, one array entry per row; every
    row makes ``EVALUATIONS`` evaluations, so no column holds them."""

    x: np.ndarray
    fun: np.ndarray
    converged: np.ndarray
    at_bound: np.ndarray

    def fit(self, r: int) -> FitResult:
        """Row ``r`` as the FitResult of a one-parameter fit."""
        return FitResult(theta_hat=np.array([self.x[r]]), objective=float(self.fun[r]),
                         evaluations=EVALUATIONS, converged=bool(self.converged[r]),
                         at_bound=bool(self.at_bound[r]))


def _grid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The start grids of the boxes [lo[r], hi[r]]: column r holds box r's
    GRID_POINTS points."""
    return np.linspace(lo, hi, GRID_POINTS)


@functools.lru_cache(maxsize=64)
def _start_cells(model: DiscreteModel) -> np.ndarray:
    """The read-only (GRID_POINTS, m) cells of ``model`` at the start grid
    of its box, evaluated once per model."""
    cells = model.cell_fn(_grid(*np.array(model.bounds[0])[:, None]))
    cells.flags.writeable = False
    return cells


def _lockstep(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
              hi: np.ndarray, fs: np.ndarray) -> FitRows:
    """Minimize one objective per row, row r on its own box [lo[r], hi[r]],
    all at once; ``f`` maps a (rows,) array of points, one per row, to
    their (rows,) values, whose entry i may depend only on point i.  ``fs``
    holds the (rows, GRID_POINTS) values at the start grids
    ``_grid(lo, hi)``."""
    rows = lo.size
    tol = 1e-8 * (hi - lo)
    xs = _grid(lo, hi)  # column r is row r's grid
    if not np.isfinite(fs).any(axis=1).all():
        raise FitFailed("objective non-finite at every grid start")
    j = np.argmin(fs, axis=1)  # first minimum = smallest x on ties
    each = np.arange(rows)

    # state holds (x, f) of the best grid point, then of the lower interior
    # point x1, the upper one x2 and the newest evaluation, updated in place
    state = np.empty((4, 2, rows))
    state[0] = xs[j, each], np.minimum.reduce(fs, axis=1)
    pts = state[1:]
    ab = xs[np.minimum(np.maximum(j + _BRACKET, 0), GRID_POINTS - 1), each]
    a, b = ab  # the bracket
    w = b - a
    interior, interior_x = pts[:2], pts[:2, 0]
    x1, f1, x2, f2, x_new, f_new = pts.reshape(6, rows)
    np.subtract(b, w * GOLDEN, out=x1)
    np.add(a, w * GOLDEN, out=x2)
    interior[:, 1] = f(x1), f(x2)
    # the interior points after a step that keeps [a, x2] / [x1, b]
    after_left, after_right = pts[2::-2], pts[1:]

    side = np.empty((2, rows), dtype=bool)
    right, left = side  # the minimum lies in [x1, b] / in [a, x2]
    for _ in range(STEPS):
        np.less_equal(f1, f2, out=left)
        np.logical_not(left, out=right)
        np.copyto(ab, interior_x, where=side)  # a <- x1 where right, b <- x2 where left
        np.subtract(b, a, out=w)
        gw = w * GOLDEN
        np.subtract(b, gw, out=x_new)
        np.copyto(x_new, a + gw, where=right)
        f_new[...] = f(x_new)
        interior[...] = np.where(left, after_left, after_right)

    # the best candidate: least value, then least x
    cand = state[:3]
    best_f = np.minimum.reduce(cand[:, 1])
    best_x = np.minimum.reduce(np.where(cand[:, 1] == best_f, cand[:, 0], np.inf))
    at_bound = np.minimum(best_x - lo, hi - best_x) <= tol
    return FitRows(best_x, best_f, w < tol, at_bound)


def _fit_phd_rows(models: tuple[DiscreteModel, ...], phat: np.ndarray,
                  h) -> tuple[FitRows, ...]:
    """Minimum penalized Hellinger fits of each of ``models`` to each row of
    the (R, m) frequency array ``phat``, row r with penalty weight ``h[r]``
    (or ``h`` for all rows), in one lockstep call; one FitRows per model.

    The fits are stacked model-major, each model's R rows on its own box.
    All rows of a model share its box and so its start grid, whose cells
    are evaluated once per model (``_start_cells``); its R rows of
    grid values are taken from them.  Every later objective call, on one
    point per stacked row, fills the fit's one (k R, m) cell array: each
    model's kernel writes the interior cells of its own rows in place, the
    residual last cell is completed once for all rows, then the distances
    of all of them are taken at once.

    No validation: each row must be a probability vector on the models'
    cells and each weight finite and positive.
    """
    rows, m = phat.shape
    k = len(models)
    root_p, occupied = np.sqrt(phat), phat > 0.0
    weights = np.broadcast_to(h, (k, rows))[:, :, None, None]
    lo, hi = np.array([model.bounds[0] for model in models]).T
    # row i * rows + r of the stack is the fit of models[i] to phat[r]
    fs = np.concatenate([_phd_rows(root_p[:, None], occupied[:, None],
                                   _start_cells(model), weights[i])
                         for i, model in enumerate(models)])
    root_s, occupied_s = np.concatenate((root_p,) * k), np.concatenate((occupied,) * k)
    weight_s = weights.reshape(-1, 1)
    cells = np.empty((k * rows, m))
    interior, last = cells[:, :-1], cells[:, -1]
    spans = [(model.kernel, slice(i * rows, (i + 1) * rows)) for i, model in enumerate(models)]

    def objective(th: np.ndarray) -> np.ndarray:
        for kernel, sl in spans:
            kernel(th[sl, None], interior[sl])
        _residual_last(interior, last)
        return _phd_rows(root_s, occupied_s, cells, weight_s)

    fits = _lockstep(objective, np.repeat(lo, rows), np.repeat(hi, rows), fs)
    return tuple(FitRows(*(a[i * rows:(i + 1) * rows] for a in fits)) for i in range(k))


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
    return _fit_phd_rows((model,), target[None, :], h)[0].fit(0)


def minimize_phd(model: DiscreteModel, sample: BinnedSample, h: float) -> FitResult:
    """Minimum penalized Hellinger distance estimate from binned counts."""
    return fit_phd_to_probs(model, sample.frequencies(), h)


def mle_binned(model: DiscreteModel, sample: BinnedSample) -> FitResult:
    """Grouped-data maximum likelihood via the modified KL divergence."""
    phat = _target(model, sample.frequencies())
    occupied = phat > 0.0

    def objective(th: np.ndarray) -> np.ndarray:
        return _kl_modified_rows(phat, occupied, model.cell_fn(th[:, None]))

    fs = _kl_modified_rows(phat, occupied, _start_cells(model))[None, :]
    return _lockstep(objective, *np.array(model.bounds[0])[:, None], fs).fit(0)
