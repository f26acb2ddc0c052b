"""Divergences between probability vectors on a common partition.

The penalized Hellinger distance keeps the squared-root-difference terms on
occupied cells and charges ``h * q_i`` on cells with zero observed
frequency; with ``h = 1`` it coincides with the ordinary Hellinger distance
because (0 - sqrt(q))^2 = q.  Gradients are analytic; finite differences are
used only as a test oracle.
"""

from __future__ import annotations

import numpy as np

from .cells import as_prob_vector
from .errors import DegenerateGradient, InvalidInput, InvalidParameter


def check_penalty_weight(h: float) -> float:
    if not (np.isfinite(h) and h > 0.0):
        raise InvalidParameter(f"penalty weight must be > 0, got {h!r}")
    return float(h)


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    P, Q = as_prob_vector(p), as_prob_vector(q)
    if P.size != Q.size:
        raise InvalidInput(f"length mismatch: {P.size} vs {Q.size}")
    return P, Q


def hellinger(p, q) -> float:
    """Ordinary (squared-type) Hellinger distance 2 sum (sqrt p - sqrt q)^2,
    symmetric, with range [0, 4]."""
    P, Q = _pair(p, q)
    return float(2.0 * np.sum((np.sqrt(P) - np.sqrt(Q)) ** 2))


def _phd_rows(root_p: np.ndarray, occupied: np.ndarray, Q: np.ndarray,
              h) -> np.ndarray:
    """Penalized Hellinger distance of each model vector along the last
    axis of ``Q`` from observed frequencies with square roots ``root_p`` and
    occupied cells ``occupied``; the three arrays and the weight ``h``
    broadcast against each other.  No validation.

    Each cell contributes (sqrt p - sqrt q)^2 where occupied and h q where
    empty; the terms are summed per vector over the cell axis.
    """
    terms = np.where(occupied, np.square(root_p - np.sqrt(Q)), h * Q)
    return np.add.reduce(terms, axis=-1) * 2.0


def penalized_hellinger(phat, ptheta, h: float) -> float:
    """Penalized Hellinger distance with empty-cell weight ``h``.

    Occupied cells (observed frequency > 0) contribute
    2 (sqrt phat_i - sqrt q_i)^2; empty cells contribute 2 h q_i.
    """
    h = check_penalty_weight(h)
    P, Q = _pair(phat, ptheta)
    return float(_phd_rows(np.sqrt(P), P > 0.0, Q, h))


def _kl_modified_rows(P: np.ndarray, occupied: np.ndarray,
                      Q: np.ndarray) -> np.ndarray:
    """Modified KL divergence of each row of the (B, m) model array ``Q``
    from the observed frequencies ``P``; +inf where a row puts zero mass on
    an occupied cell.  No validation."""
    p = P[occupied]
    q = Q.compress(occupied, axis=1)
    with np.errstate(divide="ignore"):
        fit = np.sum(p * np.log(p / q) + q - p, axis=1)
    # empty cells contribute q_i, the limit slope of -log x + x - 1
    return fit + np.sum(Q.compress(~occupied, axis=1), axis=1)


def kl_modified(ptheta, phat) -> float:
    """Modified Kullback-Leibler divergence of the model from the observed
    frequencies; +inf when the model puts zero mass on an occupied cell.

    Minimizing over the model parameter is the grouped-data maximum
    likelihood problem.
    """
    Q, P = _pair(ptheta, phat)  # Q = model, P = observed
    return float(_kl_modified_rows(P, P > 0.0, Q[None, :])[0])


def grad_phd_first(phat, ptheta, h: float) -> np.ndarray:
    """Gradient of the penalized Hellinger distance in its first argument.

    Entries on empty cells are 0 by convention: the occupied/empty split is
    held fixed at the evaluation point and the penalty does not depend on
    the observed frequencies there.
    """
    h = check_penalty_weight(h)
    P, Q = _pair(phat, ptheta)
    grad = np.zeros_like(P)
    occ = P > 0.0
    grad[occ] = 2.0 * (1.0 - np.sqrt(Q[occ] / P[occ]))
    return grad


def grad_phd_second(phat, ptheta, h: float, floor: float | None = None) -> np.ndarray:
    """Gradient of the penalized Hellinger distance in its second argument.

    Occupied cells give 2 (1 - sqrt(phat_i / q_i)); empty cells give 2h.
    A zero model probability on an occupied cell raises DegenerateGradient
    unless ``floor`` is given, in which case q_i is floored at that value.
    """
    h = check_penalty_weight(h)
    P, Q = _pair(phat, ptheta)
    occ = P > 0.0
    if floor is None:
        if np.any(occ & (Q == 0.0)):
            raise DegenerateGradient(
                "model probability is 0 on an occupied cell; pass floor= to clip"
            )
        Qeff = Q
    else:
        Qeff = np.maximum(Q, floor)
    grad = np.full_like(P, 2.0 * h)
    grad[occ] = 2.0 * (1.0 - np.sqrt(P[occ] / Qeff[occ]))
    return grad
