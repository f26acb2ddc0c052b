"""Divergences between probability vectors on a common partition.

The penalized Hellinger distance keeps the squared-root-difference terms on
occupied cells and charges ``h * q_i`` on cells with zero observed
frequency; with ``h = 1`` it coincides with the ordinary Hellinger distance
because (0 - sqrt(q))^2 = q.  Gradients are analytic.
"""

from __future__ import annotations

import numpy as np

from .cells import _is_finite_real, as_prob_vector
from .errors import DegenerateGradient, InvalidInput, InvalidParameter

# The largest penalty weight: study rows stay finite up to h = 1e150, where
# the selection variance starts to overflow.
MAX_PENALTY_WEIGHT = 1e100


def is_penalty_weight(h) -> bool:
    """The one rule for h: a real number, not a bool, in (0, MAX_PENALTY_WEIGHT]."""
    # as a double, so a numpy float32 is compared without casting the cap
    return _is_finite_real(h) and 0.0 < float(h) <= MAX_PENALTY_WEIGHT


def check_penalty_weight(h: float) -> float:
    if not is_penalty_weight(h):
        raise InvalidParameter(f"penalty weight h must be a number in "
                               f"(0, {MAX_PENALTY_WEIGHT:g}], got {h!r}")
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
    an occupied cell.  Minimizing it over the model parameter is grouped-data
    maximum likelihood.  No validation."""
    p = P[occupied]
    q = Q.compress(occupied, axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        fit = np.sum(p * np.log(p / q) + q - p, axis=1)
    # empty cells contribute q_i, the limit slope of -log x + x - 1
    return fit + np.sum(Q.compress(~occupied, axis=1), axis=1)


def grad_phd_first(phat, ptheta, h: float) -> np.ndarray:
    """Gradient of the penalized Hellinger distance in its first argument.

    Entries on empty cells are 0 by convention: the occupied/empty split is
    held fixed at the evaluation point and the penalty does not depend on
    the observed frequencies there.
    """
    h = check_penalty_weight(h)
    P, Q = _pair(phat, ptheta)
    return _grad_first(P, P > 0.0, Q)


def _grad_first(P: np.ndarray, occupied: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """First-argument gradient at frequencies ``P`` with occupied cells
    ``occupied`` and model vectors ``Q``, one vector or (R, m) rows of them.
    No validation; an empty cell keeps the ratio 1, so its entry is 0."""
    return 2.0 * (1.0 - np.sqrt(np.divide(Q, P, out=np.ones_like(P), where=occupied)))


def grad_phd_second(phat, ptheta, h: float) -> np.ndarray:
    """Gradient of the penalized Hellinger distance in its second argument.

    Occupied cells give 2 (1 - sqrt(phat_i / q_i)); empty cells give 2h.
    A zero model probability on an occupied cell raises DegenerateGradient.
    """
    h = check_penalty_weight(h)
    P, Q = _pair(phat, ptheta)
    occ = P > 0.0
    if np.any(occ & (Q == 0.0)):
        raise DegenerateGradient("model probability is 0 on an occupied cell")
    return _grad_second(P, occ, Q, h)


def _grad_second(P: np.ndarray, occupied: np.ndarray, Q: np.ndarray,
                 h) -> np.ndarray:
    """Second-argument gradient at frequencies ``P`` with occupied cells
    ``occupied``, model vectors ``Q`` and weight ``h``, which broadcasts
    against ``P`` (a float, or an (R, 1) column for (R, m) rows).  No
    validation."""
    ratio = np.divide(P, Q, out=np.ones_like(P), where=occupied)
    return np.where(occupied, 2.0 * (1.0 - np.sqrt(ratio)), 2.0 * h)
