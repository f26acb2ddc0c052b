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

from .asymptotics import lambda_star_hat
from .cells import BinnedSample, as_prob_vector
from .divergence import check_penalty_weight
from .errors import DegenerateVariance, InvalidInput
from .fit import FitResult, minimize_phd
from .models import DiscreteModel
from .quantiles import chi2_cdf, chi2_quantile, normal_cdf, normal_quantile

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
    fit1: FitResult
    fit2: FitResult


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise InvalidInput(f"test level must be in (0,1), got {alpha!r}")
    return float(alpha)


def gof_test(sample: BinnedSample, model: DiscreteModel, h: float,
             alpha: float = 0.05) -> GofReport:
    """Goodness-of-fit test of ``model`` against the binned sample."""
    alpha = _check_alpha(alpha)
    df = model.partition.m - model.k - 1
    if df < 1:
        raise InvalidInput(f"degrees of freedom m-k-1 = {df} must be >= 1")
    fit = minimize_phd(model, sample, h)
    statistic = 2.0 * sample.n * fit.objective
    critical = chi2_quantile(1.0 - alpha, df)
    p_value = 1.0 - chi2_cdf(statistic, df)
    return GofReport(statistic=statistic, df=df, critical=critical,
                     p_value=p_value, reject=statistic > critical, fit=fit)


def power_approx(D: float, omega_sq: float, n: int, alpha: float, df: int) -> float:
    """Normal approximation to the rejection probability at a population
    distance ``D`` and variance ``omega_sq``; increasing in both D and n."""
    alpha = _check_alpha(alpha)
    if omega_sq <= 0.0:
        raise DegenerateVariance(f"omega_sq must be > 0, got {omega_sq!r}")
    if n < 1:
        raise InvalidInput("n must be >= 1")
    q = chi2_quantile(1.0 - alpha, df)
    return 1.0 - normal_cdf((q - 2.0 * n * D) / (2.0 * math.sqrt(n) * math.sqrt(omega_sq)))


def required_sample_size(D: float, omega_sq: float, alpha: float,
                         beta_star: float, df: int) -> int:
    """Smallest integer sample size whose approximate power reaches
    ``beta_star``.

    Solves the power equation exactly: with c the normal quantile at
    1 - beta_star, a = omega_sq * c^2 and b = q * D, the continuous solution
    is ((a + b) - sign(c) sqrt(a (a + 2b))) / (2 D^2); the returned size is
    its integer part plus one.
    """
    alpha = _check_alpha(alpha)
    if not 0.0 < beta_star < 1.0:
        raise InvalidInput(f"target power must be in (0,1), got {beta_star!r}")
    if D <= 0.0:
        raise InvalidInput("population distance must be > 0")
    if omega_sq <= 0.0:
        raise DegenerateVariance(f"omega_sq must be > 0, got {omega_sq!r}")
    q = chi2_quantile(1.0 - alpha, df)
    c = normal_quantile(1.0 - beta_star)
    a = omega_sq * c * c
    b = q * D
    n_star = ((a + b) - math.copysign(math.sqrt(a * (a + 2.0 * b)), c)) / (2.0 * D * D)
    return max(int(math.floor(n_star)) + 1, 1)


def decide(hi: float, z: float) -> str:
    """Three-way decision; the boundary |hi| = z counts as indecisive."""
    if hi < -z:
        return FAVOR_FIRST
    if hi > z:
        return FAVOR_SECOND
    return INDECISIVE


def _interior_theta(theta: np.ndarray, model: DiscreteModel) -> np.ndarray:
    # keep finite-difference machinery off the exact box boundary
    out = np.array(theta, dtype=float)
    for j, (lo, hi) in enumerate(model.bounds):
        margin = 1e-9 * (hi - lo)
        out[j] = min(max(out[j], lo + margin), hi - margin)
    return out


def model_select(sample: BinnedSample, model1: DiscreteModel,
                 model2: DiscreteModel, h: float,
                 alpha: float = 0.05) -> SelectionReport:
    """Selection test between two families fitted to the same binned sample.

    A degenerate variance (identical fitted models) yields an indecisive
    report with the ``degenerate`` flag set rather than an error.
    """
    alpha = _check_alpha(alpha)
    h = check_penalty_weight(h)
    if model1.partition.m != model2.partition.m:
        raise InvalidInput("models must share the partition")
    fit1 = minimize_phd(model1, sample, h)
    fit2 = minimize_phd(model2, sample, h)
    phat = as_prob_vector(sample.frequencies())
    z = normal_quantile(1.0 - alpha / 2.0)
    return _studentize(phat, sample.n, model1, fit1, model2, fit2, h, z)


def _studentize(phat: np.ndarray, n: int, model1: DiscreteModel, fit1: FitResult,
                model2: DiscreteModel, fit2: FitResult, h: float,
                z: float) -> SelectionReport:
    """The selection report of two fits to the frequencies ``phat`` of a
    sample of size ``n``, at the critical value ``z``."""
    d1, d2 = fit1.objective, fit2.objective
    try:
        sv = lambda_star_hat(phat,
                             model1, _interior_theta(fit1.theta_hat, model1),
                             model2, _interior_theta(fit2.theta_hat, model2), h)
    except DegenerateVariance:
        return SelectionReport(hi=math.nan, gamma_hat=0.0, d1=d1, d2=d2, z=z,
                               decision=INDECISIVE, degenerate=True,
                               fit1=fit1, fit2=fit2)
    gamma = math.sqrt(sv.GammaSq)
    hi = math.sqrt(n) * (d1 - d2) / gamma
    return SelectionReport(hi=hi, gamma_hat=gamma, d1=d1, d2=d2, z=z,
                           decision=decide(hi, z), degenerate=False,
                           fit1=fit1, fit2=fit2)
