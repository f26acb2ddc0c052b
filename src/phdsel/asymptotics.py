"""Large-sample covariance machinery for the fitted cell probabilities.

Every family has one parameter, so each limit law is closed form in the
model's cells q, their central-difference derivative J and g = J / q_f,
where q_f = max(q, PROB_FLOOR).  The information is I = sum J^2 / q_f, a
scalar, singular below the smallest normal double; the projection
M = J g^T / I has rank one and M^T Q = g (J . Q) / I; and under the
multinomial covariance Sigma(p) = diag(p) - p p^T,
w^T Sigma(p) w = sum p w^2 - (sum p w)^2.  Nothing is factored or solved.

q is floored wherever a formula divides by it or takes sqrt(phat/q); the
distances never floor.  A structural zero cell (constant zero probability
along the family) has J = 0, which removes the floored entries from every
projected quantity exactly.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cells import as_prob_vector
from .divergence import (_grad_first, _grad_second, check_penalty_weight,
                         penalized_hellinger)
from .errors import (BoundaryParameter, DegenerateVariance, InvalidInput,
                     SingularInformation)
from .models import DiscreteModel

PROB_FLOOR = 1e-12
_GAMMA_SQ_FLOOR = 1e-10


@dataclass(frozen=True)
class SelectionVariance:
    """Plug-in ingredients of the selection-statistic variance."""

    K1: np.ndarray
    Q1: np.ndarray
    K2: np.ndarray
    Q2: np.ndarray
    LambdaStar: np.ndarray  # 2m x 2m block covariance
    GammaSq: float


# A model at one parameter: cells q, floored cells q_f, derivative J,
# g = J / q_f and the information I.
_Local = namedtuple("_Local", "q qf J g info")


def _cells_and_derivative(model: DiscreteModel, theta) -> tuple[np.ndarray, np.ndarray]:
    """Validated cells q at ``theta`` and their derivative J, by one kernel
    call on theta +- s with s = 1e-6 max(1, |theta|), clipped to the box; a
    parameter on or outside its box boundary is rejected."""
    if model.k != 1:
        raise InvalidInput(f"only one-parameter models are supported, got k={model.k}")
    t = float(model.theta_array(theta)[0])
    lo, hi = model.bounds[0]
    if t <= lo or t >= hi:
        raise BoundaryParameter(f"theta[0]={t!r} is on the boundary of [{lo}, {hi}]")
    q = model.cell_prob([t])
    step = 1e-6 * max(1.0, abs(t))
    up, dn = min(t + step, hi), max(t - step, lo)
    at_up, at_dn = model.cell_fn(np.array([[up], [dn]]))
    return q, (at_up - at_dn) / (up - dn)


def _local(model: DiscreteModel, theta) -> _Local:
    q, J = _cells_and_derivative(model, theta)
    qf = np.maximum(q, PROB_FLOOR)
    g = J / qf
    info = float(J @ g)
    if info < np.finfo(float).tiny:
        raise SingularInformation(f"information of {model.name!r} is numerically zero")
    return _Local(q, qf, J, g, info)


def _linearize(P: np.ndarray, model: DiscreteModel, theta, h: float):
    """``model`` at ``theta`` against the validated frequencies ``P``: its
    local terms, the distance gradients K and Q, and M^T Q."""
    loc = _local(model, theta)
    if loc.q.size != P.size:
        raise InvalidInput(f"{P.size} frequencies for the {loc.q.size} cells of {model.name!r}")
    occupied = P > 0.0
    Q = _grad_second(P, occupied, loc.qf, h)
    return loc, _grad_first(P, occupied, loc.q), Q, loc.g * ((loc.J @ Q) / loc.info)


def _sigma(p: np.ndarray) -> np.ndarray:
    return np.diag(p) - np.outer(p, p)


def _sandwich(p: np.ndarray, loc: _Local) -> tuple[np.ndarray, np.ndarray]:
    """S M^T and M S M^T for S = Sigma(p) and the projection M of ``loc``:
    outer products of J and S g."""
    Sg = p * (loc.g - p @ loc.g)
    SM = np.outer(Sg, loc.J / loc.info)
    MSM = np.outer(loc.J, loc.J) * ((loc.g @ Sg) / loc.info**2)
    return SM, MSM


def _sigma_form(p: np.ndarray, w: np.ndarray) -> float:
    """w^T Sigma(p) w."""
    return float((p * w) @ w - (p @ w) ** 2)


def jacobian(model: DiscreteModel, theta) -> np.ndarray:
    """m x 1 central-difference derivative of the cell probabilities."""
    return _cells_and_derivative(model, theta)[1][:, None]


def fisher_info(model: DiscreteModel, theta) -> np.ndarray:
    """1 x 1 information matrix sum J^2 / q_f."""
    return np.array([[_local(model, theta).info]])


def sigma(p) -> np.ndarray:
    """Multinomial covariance diag(p) - p p^T of one observation's cell
    indicator; rows sum to zero and the matrix is PSD."""
    return _sigma(as_prob_vector(p))


def m_matrix(model: DiscreteModel, theta) -> np.ndarray:
    """Projection M = J I^{-1} J^T diag(1/q_f); satisfies M J = J."""
    loc = _local(model, theta)
    return np.outer(loc.J, loc.g / loc.info)


def lambda_correct(model: DiscreteModel, theta) -> np.ndarray:
    """Covariance of sqrt(n)(phat - fitted probs) under a correctly
    specified model: (I - M) Sigma (I - M)^T with Sigma = Sigma(q), expanded
    as the four-term sandwich."""
    loc = _local(model, theta)
    SM, MSM = _sandwich(loc.q, loc)
    return _sigma(loc.q) - SM - SM.T + MSM


def omega_sq(p, model: DiscreteModel, theta1, h: float) -> float:
    """Variance of sqrt(n) times the fitted penalized distance around its
    population value, at the pseudo-true parameter ``theta1``.

    Zero under correct specification, where both distance gradients vanish.
    """
    h = check_penalty_weight(h)
    P = as_prob_vector(p)
    _, K, _, MQ = _linearize(P, model, theta1, h)
    return max(_sigma_form(P, K + MQ), 0.0)


def lambda_star_hat(phat, model1: DiscreteModel, theta1,
                    model2: DiscreteModel, theta2, h: float) -> SelectionVariance:
    """Plug-in variance v^T Sigma(phat) v of the difference of the two
    fitted distances, with v = (K1 - K2) + M1^T Q1 - M2^T Q2: each estimate
    is linearized against the shared innovation phat - p, and K_j, Q_j are
    the distance gradients in the first and second argument at fit j.  M^T Q
    vanishes at an interior fit.  ``LambdaStar`` is
    [[S, S Mc^T], [Mc S, Mc S Mc^T]], S = Sigma(phat), with the projection Mc
    of the better-fitting model.

    A variance below 1e-10 raises DegenerateVariance with ``reason``
    ``"identical_fits"`` when the fitted cells are equal, else
    ``"zero_variance"``.
    """
    h = check_penalty_weight(h)
    P = as_prob_vector(phat)
    loc1, K1, Q1, MQ1 = _linearize(P, model1, theta1, h)
    loc2, K2, Q2, MQ2 = _linearize(P, model2, theta2, h)
    gamma_sq = max(_sigma_form(P, (K1 - K2) + MQ1 - MQ2), 0.0)
    d1 = penalized_hellinger(P, loc1.q, h)
    d2 = penalized_hellinger(P, loc2.q, h)
    if gamma_sq < _GAMMA_SQ_FLOOR:
        raise DegenerateVariance(
            f"selection variance {gamma_sq:.3e} below {_GAMMA_SQ_FLOOR:.0e}",
            reason="identical_fits" if np.array_equal(loc1.q, loc2.q) else "zero_variance")
    SM, MSM = _sandwich(P, loc1 if d1 <= d2 else loc2)
    star = np.block([[_sigma(P), SM], [SM.T, MSM]])
    return SelectionVariance(K1=K1, Q1=Q1, K2=K2, Q2=Q2, LambdaStar=star,
                             GammaSq=gamma_sq)
