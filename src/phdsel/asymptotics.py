"""Large-sample variances of the fitted penalized Hellinger distances; the
distances themselves are computed in ``inference``, at the fits.

Every family has one parameter, so each limit law is closed form in the
model's cells q, their finite-difference derivative J and g = J / q_f,
where q_f = max(q, PROB_FLOOR).  The information is I = sum J^2 / q_f, a
scalar, singular below the smallest normal double; the projection
M = J g^T / I has rank one and M^T Q = g (J . Q) / I; and under the
multinomial covariance Sigma(p) = diag(p) - p p^T,
w^T Sigma(p) w = sum p w^2 - (sum p w)^2.  Nothing is factored or solved.

One row core computes these for R rows at once: (R, m) frequencies against
each family at (R,) estimates, with one validated cell call per family on
the 3R points theta, theta + s and theta - s, the last two for J, clipped
to the closed box, so J is one-sided at an estimate on a bound.  Every sum
runs along the cell axis with ``np.add.reduce``, so row r is bit-identical
to the core's call on that row alone.  The public functions other than
``sigma`` are its R = 1 call; ``inference._select_rows`` fits and
studentizes each chunk of ``run_experiment`` rows, with one call of the
core per chunk.

q is floored wherever a formula divides by it or takes sqrt(phat/q).  A
structural zero cell (constant zero probability along the family) has J = 0,
which removes the floored entries from every projected quantity exactly.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cells import as_prob_vector
from .divergence import _grad_first, _grad_second, check_penalty_weight
from .errors import (BoundaryParameter, DegenerateVariance, InvalidInput,
                     SingularInformation)
from .models import DiscreteModel

PROB_FLOOR = 1e-12
_GAMMA_SQ_FLOOR = 1e-10


@dataclass(frozen=True)
class SelectionVariance:
    """Plug-in variance gamma^2 of the selection statistic."""

    GammaSq: float


# A model at R parameters: the (R, m) cells q, floored cells q_f, derivative
# J and g = J / q_f, and the (R,) information I.
_Rows = namedtuple("_Rows", "q qf J g info")
# The selection variance of R rows: each model's rows, gamma^2, and the flags
# gamma^2 < 1e-10 and equal fitted cells.
_Selection = namedtuple("_Selection", "rows1 rows2 gamma_sq degenerate identical")


def _model_rows(model: DiscreteModel, t: np.ndarray) -> _Rows:
    """``model`` at the (R,) parameters ``t``.

    Only a parameter outside the box [lo, hi] is rejected.  One validated
    call on the stacked points t, t + s and t - s gives the cells and the
    two sides of J, with s = 1e-6 max(1, |t|) and the points clipped to the
    box (one-sided on a bound); each row's cells depend on its point alone.
    """
    lo, hi = model.bounds[0]
    outside = (t < lo) | (t > hi)
    if outside.any():
        raise BoundaryParameter(
            f"theta[0]={float(t[outside][0])!r} is outside the box [{lo}, {hi}]")
    step = 1e-6 * np.maximum(1.0, np.abs(t))
    points = np.array((t, np.minimum(t + step, hi), np.maximum(t - step, lo)))
    q, at_up, at_dn = model.cell_prob(points.reshape(-1, 1)).reshape(3, t.size, -1)
    J = (at_up - at_dn) / (points[1] - points[2])[:, None]
    qf = np.maximum(q, PROB_FLOOR)
    g = J / qf
    info = np.add.reduce(J * g, axis=-1)
    if np.any(info < np.finfo(float).tiny):
        raise SingularInformation(f"information of {model.name!r} is numerically zero")
    return _Rows(q, qf, J, g, info)


def _gradient_rows(P: np.ndarray, occupied: np.ndarray, model: DiscreteModel,
                   theta: np.ndarray, h):
    """``model`` at ``theta`` against the frequencies ``P``, row by row: its
    rows, the distance gradients K and Q, and M^T Q."""
    rows = _model_rows(model, theta)
    m = rows.q.shape[-1]
    if m != P.shape[-1]:
        raise InvalidInput(f"{P.shape[-1]} frequencies for the {m} cells of {model.name!r}")
    Q = _grad_second(P, occupied, rows.qf, h)
    JQ = np.add.reduce(rows.J * Q, axis=-1)
    MQ = rows.g * (JQ / rows.info)[:, None]
    return rows, _grad_first(P, occupied, rows.q), Q, MQ


def _sigma_form(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w^T Sigma(p) w of each row."""
    pw = p * w
    return np.add.reduce(pw * w, axis=-1) - np.add.reduce(pw, axis=-1) ** 2


def _selection_rows(P: np.ndarray, model1: DiscreteModel, theta1: np.ndarray,
                    model2: DiscreteModel, theta2: np.ndarray, h) -> _Selection:
    """The row core: the plug-in selection variance v^T Sigma(p) v of each
    row p of the (R, m) frequencies ``P``, with
    v = (K1 - K2) + M1^T Q1 - M2^T Q2 for the families at the (R,)
    estimates ``theta1`` and ``theta2``; ``h`` is a float or an (R, 1)
    column of weights.  No validation of ``P`` or ``h``.

    ``degenerate`` flags the rows whose variance is below 1e-10,
    ``identical`` those whose two fitted cell vectors are equal.
    """
    occupied = P > 0.0
    rows1, K1, _, MQ1 = _gradient_rows(P, occupied, model1, theta1, h)
    rows2, K2, _, MQ2 = _gradient_rows(P, occupied, model2, theta2, h)
    gamma_sq = np.maximum(_sigma_form(P, (K1 - K2) + MQ1 - MQ2), 0.0)
    return _Selection(rows1, rows2, gamma_sq, gamma_sq < _GAMMA_SQ_FLOOR,
                      (rows1.q == rows2.q).all(axis=-1))


def _one(model: DiscreteModel, theta) -> _Rows:
    """``model`` at the single parameter vector ``theta``."""
    return _model_rows(model, model.theta_array(theta))


def jacobian(model: DiscreteModel, theta) -> np.ndarray:
    """m x 1 derivative of the cell probabilities, one-sided on a box bound."""
    return _one(model, theta).J.T


def sigma(p) -> np.ndarray:
    """Multinomial covariance diag(p) - p p^T of one observation's cell
    indicator; rows sum to zero and the matrix is PSD."""
    p = as_prob_vector(p)
    return np.diag(p) - np.outer(p, p)


def m_matrix(model: DiscreteModel, theta) -> np.ndarray:
    """Projection M = J I^{-1} J^T diag(1/q_f); satisfies M J = J."""
    rows = _one(model, theta)
    return np.outer(rows.J[0], rows.g[0] / rows.info[0])


def omega_sq(p, model: DiscreteModel, theta1, h: float) -> float:
    """Variance of sqrt(n) times the fitted penalized distance around its
    population value, at the pseudo-true parameter ``theta1``.

    Zero under correct specification, where both distance gradients vanish.
    """
    h = check_penalty_weight(h)
    P = as_prob_vector(p)[None, :]
    _, K, _, MQ = _gradient_rows(P, P > 0.0, model, model.theta_array(theta1), h)
    return max(float(_sigma_form(P, K + MQ)[0]), 0.0)


def lambda_star_hat(phat, model1: DiscreteModel, theta1,
                    model2: DiscreteModel, theta2, h: float) -> SelectionVariance:
    """Plug-in variance v^T Sigma(phat) v of the difference of the two
    fitted distances, with v = (K1 - K2) + M1^T Q1 - M2^T Q2: each estimate
    is linearized against the shared innovation phat - p, and K_j, Q_j are
    the distance gradients in the first and second argument at fit j.  M^T Q
    vanishes at an interior fit.

    A parameter outside its box raises BoundaryParameter.  A
    variance below 1e-10 raises DegenerateVariance with ``reason``
    ``"identical_fits"`` when the fitted cells are equal, else
    ``"zero_variance"``.  This is the R = 1 call of the row core.
    """
    h = check_penalty_weight(h)
    P = as_prob_vector(phat)
    sel = _selection_rows(P[None, :], model1, model1.theta_array(theta1),
                          model2, model2.theta_array(theta2), h)
    gamma_sq = float(sel.gamma_sq[0])
    if sel.degenerate[0]:
        raise DegenerateVariance(
            f"selection variance {gamma_sq:.3e} below {_GAMMA_SQ_FLOOR:.0e}",
            reason="identical_fits" if sel.identical[0] else "zero_variance")
    return SelectionVariance(GammaSq=gamma_sq)
