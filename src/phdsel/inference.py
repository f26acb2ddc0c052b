"""Goodness-of-fit testing, power approximation, sample-size computation,
and the two-model selection test.

The goodness-of-fit statistic 2n times the fitted penalized Hellinger
distance is compared against a chi-square quantile with m - k - 1 degrees of
freedom.  The selection statistic is sqrt(n) times the difference of the two
fitted distances, studentized by the plug-in standard deviation; it is
driven toward minus infinity when the first model fits better, so values
below -z favor the first model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _selection_rows, lambda_star_hat
from .cells import BinnedSample, CellPartition, _is_finite_real, _is_test_level
from .divergence import check_penalty_weight, penalized_hellinger
from .errors import DegenerateVariance, InvalidInput
from .fit import FitResult, FitRows, _fit_phd_rows, minimize_phd
from .models import DiscreteModel
from .quantiles import _gamma_tails, chi2_quantile, normal_cdf, normal_quantile

FAVOR_FIRST = "favor_first"
FAVOR_SECOND = "favor_second"
INDECISIVE = "indecisive"


@dataclass(frozen=True)
class GofReport:
    statistic: float
    df: int
    critical: float
    p_value: float
    reject: bool
    fit: FitResult


@dataclass(frozen=True)
class SelectionReport:
    hi: float
    gamma_hat: float
    d1: float
    d2: float
    z: float
    decision: str
    degenerate: bool
    degenerate_reason: str  # "identical_fits", "zero_variance", or "" if not degenerate
    fit1: FitResult
    fit2: FitResult


def _check_test_level(value, name: str) -> float:
    if not _is_test_level(value):
        raise InvalidInput(f"{name} must be a number in (0,1) above 2**-53, got {value!r}")
    return float(value)


def _critical_z(alpha: float) -> float:
    """The two-sided normal critical value z of the test level ``alpha``."""
    return normal_quantile(1.0 - alpha / 2.0)


def _check_shared_partition(*parts: CellPartition) -> None:
    """Refuse partitions that differ in their cuts, naming them all."""
    if any(part != parts[0] for part in parts[1:]):
        raise InvalidInput("models must share the partition, got the cuts "
                           + " and ".join(str(part.cuts) for part in parts))


def gof_test(sample: BinnedSample, model: DiscreteModel, h: float,
             alpha: float = 0.05) -> GofReport:
    """Goodness-of-fit test of ``model`` against the binned sample."""
    alpha = _check_test_level(alpha, "alpha")
    df = model.partition.m - model.k - 1  # >= 1: a model has k = 1 and m >= 3
    fit = minimize_phd(model, sample, h)
    statistic = 2.0 * sample.n * fit.objective
    critical = chi2_quantile(1.0 - alpha, df)
    p_value = _gamma_tails(0.5 * df, 0.5 * statistic)[1]
    return GofReport(statistic=statistic, df=df, critical=critical,
                     p_value=p_value, reject=statistic > critical, fit=fit)


def _check_omega_sq(omega_sq: float) -> None:
    if not _is_finite_real(omega_sq):
        raise InvalidInput(f"omega_sq must be a finite number, got {omega_sq!r}")
    if omega_sq <= 0.0:
        raise DegenerateVariance(f"omega_sq must be > 0, got {omega_sq!r}")


def power_approx(D: float, omega_sq: float, n: int, alpha: float, df: int) -> float:
    """Normal approximation to the rejection probability at a population
    distance ``D`` and variance ``omega_sq``; increasing in both D and n.

    ``D``, ``omega_sq`` and ``n >= 1`` must be finite numbers, else
    InvalidInput, and ``omega_sq <= 0`` raises DegenerateVariance.
    """
    alpha = _check_test_level(alpha, "alpha")
    if not _is_finite_real(D):
        raise InvalidInput(f"D must be a finite number, got {D!r}")
    _check_omega_sq(omega_sq)
    if not (_is_finite_real(n) and n >= 1):
        raise InvalidInput(f"n must be a finite number >= 1, got {n!r}")
    q = chi2_quantile(1.0 - alpha, df)
    # (q - 2 n D) / (2 sqrt(n omega_sq)) divided through by 2 sqrt(n): no inf / inf or inf * 0
    root_n = math.sqrt(n)
    return 1.0 - normal_cdf((q / (2.0 * root_n) - root_n * D) / math.sqrt(omega_sq))


def required_sample_size(D: float, omega_sq: float, alpha: float,
                         beta_star: float, df: int) -> int:
    """Smallest integer sample size whose approximate power reaches
    ``beta_star``.

    Solves the power equation exactly: with c the normal quantile at
    1 - beta_star, a = omega_sq * c^2 and b = q * D, the continuous solution
    is ((a + b) - sign(c) sqrt(a (a + 2b))) / (2 D^2); the returned size is
    its integer part plus one.  ``D`` must be finite and > 0 and
    ``omega_sq`` finite (InvalidInput) and > 0 (DegenerateVariance); a ``D``
    so small, or an ``omega_sq`` so large, that the size is not a finite
    double raises InvalidInput.
    """
    alpha = _check_test_level(alpha, "alpha")
    beta_star = _check_test_level(beta_star, "beta_star")
    if not (_is_finite_real(D) and D > 0.0):
        raise InvalidInput(f"D must be a finite number > 0, got {D!r}")
    _check_omega_sq(omega_sq)
    q = chi2_quantile(1.0 - alpha, df)
    c = normal_quantile(1.0 - beta_star)
    a = omega_sq * c * c
    b = q * D
    denom = 2.0 * D * D
    n_star = (((a + b) - math.copysign(math.sqrt(a * (a + 2.0 * b)), c)) / denom
              if denom > 0.0 else math.inf)
    if not math.isfinite(n_star):
        raise InvalidInput(f"D={D!r} and omega_sq={omega_sq!r} give a sample size "
                           "that overflows a double")
    return max(int(math.floor(n_star)) + 1, 1)


def decide(hi: float, z: float) -> str:
    """Three-way decision; the boundary |hi| = z counts as indecisive."""
    if hi < -z:
        return FAVOR_FIRST
    if hi > z:
        return FAVOR_SECOND
    return INDECISIVE


def model_select(sample: BinnedSample, model1: DiscreteModel,
                 model2: DiscreteModel, h: float,
                 alpha: float = 0.05) -> SelectionReport:
    """Selection test between two families fitted to the same binned sample.

    A degenerate variance yields an indecisive report with the
    ``degenerate`` flag set rather than an error; ``degenerate_reason`` is
    ``"identical_fits"`` when the two fitted cell vectors are equal and
    ``"zero_variance"`` when they differ but the plug-in variance vanishes,
    as on a sample with one occupied cell.

    Each d_j is ``penalized_hellinger`` at fit j's cells, equal to
    ``fit_j.objective`` bit for bit; it is recomputed only for the
    benchmark's ``divergence.phd`` span, which ROADMAP item 1b removes.
    """
    alpha = _check_test_level(alpha, "alpha")
    h = check_penalty_weight(h)
    _check_shared_partition(model1.partition, model2.partition)
    fit1 = minimize_phd(model1, sample, h)
    fit2 = minimize_phd(model2, sample, h)
    phat = sample.frequencies()
    z = _critical_z(alpha)
    d1, d2 = (penalized_hellinger(phat, model.cell_prob(fit.theta_hat), h)
              for model, fit in ((model1, fit1), (model2, fit2)))
    try:
        gamma_sq = lambda_star_hat(phat, model1, fit1.theta_hat, model2, fit2.theta_hat, h).GammaSq
        degenerate, reason = False, ""
    except DegenerateVariance as exc:
        gamma_sq, degenerate, reason = 0.0, True, exc.reason
    hi, gamma = (float(v) for v in _statistic(sample.n, d1, d2, gamma_sq, degenerate))
    return SelectionReport(hi=hi, gamma_hat=gamma, d1=d1, d2=d2, z=z,
                           decision=decide(hi, z), degenerate=degenerate,
                           degenerate_reason=reason, fit1=fit1, fit2=fit2)


def _statistic(n, d1, d2, gamma_sq, degenerate) -> tuple[np.ndarray, np.ndarray]:
    """HI and gamma_hat of each selection: sqrt(n) (d1 - d2) / gamma_hat
    with gamma_hat = sqrt(gamma_sq), NaN and 0 where ``degenerate``.
    Arguments broadcast against each other."""
    gamma = np.sqrt(np.where(degenerate, 0.0, gamma_sq))
    hi = np.full(gamma.shape, math.nan)
    np.divide(np.sqrt(n) * (d1 - d2), gamma, out=hi, where=~np.asarray(degenerate))
    return hi, gamma


def _select_rows(phat: np.ndarray, n: np.ndarray, model1: DiscreteModel, model2: DiscreteModel,
                 h: np.ndarray) -> tuple[FitRows, FitRows, np.ndarray, np.ndarray]:
    """Both fits, HI and the degenerate flag of each row of the (R, m)
    frequencies ``phat`` of samples of sizes ``n``, row r with weight ``h[r]``:
    one lockstep fit of both families, then one row-core call at their
    estimates.  Row r equals its ``model_select`` report; no validation."""
    fits1, fits2 = _fit_phd_rows((model1, model2), phat, h)
    sel = _selection_rows(phat, model1, fits1.x, model2, fits2.x, h[:, None])
    hi = _statistic(n, fits1.fun, fits2.fun, sel.gamma_sq, sel.degenerate)[0]
    return fits1, fits2, hi, sel.degenerate
