"""Large-sample covariance machinery for the fitted cell probabilities.

Everything is plug-in: the Jacobian of the cell probabilities is taken by
central finite differences, the information matrix and projection are
assembled from it, and the variance of the studentized model-selection
statistic stacks each model's own linearization against the shared
multinomial innovation.

Model cell probabilities are floored at ``PROB_FLOOR`` wherever a formula
divides by them or takes sqrt(phat/q); the distances themselves never
floor.  A structural zero cell (constant zero probability along the family)
has a zero Jacobian row, which removes the floored entries from every
projected quantity exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import as_prob_vector
from .divergence import (check_penalty_weight, grad_phd_first, grad_phd_second,
                         penalized_hellinger)
from .errors import BoundaryParameter, DegenerateVariance, SingularInformation
from .models import DiscreteModel

PROB_FLOOR = 1e-12
_COND_LIMIT = 1e12
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


def jacobian(model: DiscreteModel, theta) -> np.ndarray:
    """m x k Jacobian of the cell probabilities by central differences.

    Steps are 1e-6 * max(1, |theta_j|), clipped to stay inside the bounds;
    a parameter exactly on its boundary is rejected.
    """
    th = model.theta_array(theta)
    J = np.empty((model.partition.m, model.k))
    for j, (lo, hi) in enumerate(model.bounds):
        if th[j] <= lo or th[j] >= hi:
            raise BoundaryParameter(
                f"theta[{j}]={th[j]!r} is on the boundary of [{lo}, {hi}]"
            )
        step = 1e-6 * max(1.0, abs(th[j]))
        up, dn = th.copy(), th.copy()
        up[j] = min(th[j] + step, hi)
        dn[j] = max(th[j] - step, lo)
        J[:, j] = (model.cell_prob(up) - model.cell_prob(dn)) / (up[j] - dn[j])
    return J


def _cells_and_jacobian(model: DiscreteModel, theta) -> tuple[np.ndarray, np.ndarray]:
    """Unfloored cell probabilities q and the Jacobian J at ``theta``."""
    return model.cell_prob(theta), jacobian(model, theta)


def _information(model: DiscreteModel, q: np.ndarray, J: np.ndarray) -> np.ndarray:
    qf = np.maximum(q, PROB_FLOOR)
    D = J / np.sqrt(qf)[:, None]
    info = D.T @ D
    # the 1-norm condition number needs only the LU solve that the projection
    # makes anyway; the 2-norm one adds an SVD, whose first call costs 1 MB RSS
    if np.linalg.cond(info, 1) > _COND_LIMIT:
        raise SingularInformation(
            f"information matrix of {model.name!r} is numerically singular"
        )
    return info


def _projection(model: DiscreteModel, q: np.ndarray, J: np.ndarray) -> np.ndarray:
    info = _information(model, q, J)
    qf = np.maximum(q, PROB_FLOOR)
    return J @ np.linalg.solve(info, (J / qf[:, None]).T)


def fisher_info(model: DiscreteModel, theta) -> np.ndarray:
    """k x k information matrix D^T D with D = diag(q^{-1/2}) J."""
    return _information(model, *_cells_and_jacobian(model, theta))


def sigma(p) -> np.ndarray:
    """Multinomial covariance diag(p) - p p^T of one observation's cell
    indicator; rows sum to zero and the matrix is PSD."""
    P = as_prob_vector(p)
    return np.diag(P) - np.outer(P, P)


def m_matrix(model: DiscreteModel, theta) -> np.ndarray:
    """Projection M = J I^{-1} J^T diag(1/q); satisfies M J = J."""
    return _projection(model, *_cells_and_jacobian(model, theta))


def lambda_correct(model: DiscreteModel, theta) -> np.ndarray:
    """Covariance of sqrt(n)(phat - fitted probs) under a correctly
    specified model: (I - M) Sigma (I - M)^T expanded as the four-term
    sandwich."""
    q, J = _cells_and_jacobian(model, theta)
    S = sigma(q)
    M = _projection(model, q, J)
    return S - S @ M.T - M @ S + M @ S @ M.T


def omega_sq(p, model: DiscreteModel, theta1, h: float) -> float:
    """Variance of sqrt(n) times the fitted penalized distance around its
    population value, at the pseudo-true parameter ``theta1``.

    Zero under correct specification, where both distance gradients vanish.
    """
    h = check_penalty_weight(h)
    P = as_prob_vector(p)
    q, J = _cells_and_jacobian(model, theta1)
    K = grad_phd_first(P, q, h)
    Q = grad_phd_second(P, q, h, floor=PROB_FLOOR)
    M = _projection(model, q, J)
    w = K + M.T @ Q
    S = sigma(P)
    return max(float(w @ S @ w), 0.0)


def lambda_star_hat(phat, model1: DiscreteModel, theta1,
                    model2: DiscreteModel, theta2, h: float) -> SelectionVariance:
    """Plug-in variance of the difference of the two fitted distances.

    Each model's parameter estimate is linearized against the shared
    innovation phat - p via its own projection matrix, so the variance is
    v^T Sigma(phat) v with v = (K1 - K2) + M1^T Q1 - M2^T Q2.  At an
    interior fit the projected gradient M^T Q vanishes (stationarity), which
    also neutralizes floored entries on structural zero cells.  The reported
    2m x 2m block matrix uses the better-fitting model's projection.

    Raises DegenerateVariance when the variance collapses (identical fitted
    models).
    """
    h = check_penalty_weight(h)
    P = as_prob_vector(phat)
    q1, J1 = _cells_and_jacobian(model1, theta1)
    q2, J2 = _cells_and_jacobian(model2, theta2)
    K1 = grad_phd_first(P, q1, h)
    K2 = grad_phd_first(P, q2, h)
    Q1 = grad_phd_second(P, q1, h, floor=PROB_FLOOR)
    Q2 = grad_phd_second(P, q2, h, floor=PROB_FLOOR)
    M1 = _projection(model1, q1, J1)
    M2 = _projection(model2, q2, J2)
    S = sigma(P)

    v = (K1 - K2) + M1.T @ Q1 - M2.T @ Q2
    gamma_sq = max(float(v @ S @ v), 0.0)

    d1 = penalized_hellinger(P, q1, h)
    d2 = penalized_hellinger(P, q2, h)
    Mc = M1 if d1 <= d2 else M2
    m = P.size
    star = np.empty((2 * m, 2 * m))
    star[:m, :m] = S
    star[:m, m:] = S @ Mc.T
    star[m:, :m] = Mc @ S
    star[m:, m:] = Mc @ S @ Mc.T

    if gamma_sq < _GAMMA_SQ_FLOOR:
        raise DegenerateVariance(
            f"selection variance {gamma_sq:.3e} below {_GAMMA_SQ_FLOOR:.0e}"
        )
    return SelectionVariance(K1=K1, Q1=Q1, K2=K2, Q2=Q2, LambdaStar=star,
                             GammaSq=gamma_sq)
