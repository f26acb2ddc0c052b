"""Normal and chi-square distribution functions and quantiles.

Self-contained so test thresholds are bit-reproducible across platforms:
the regularized incomplete gamma uses the classical series/continued-
fraction split and quantiles are found by bisection.
"""

from __future__ import annotations

import math

from .cells import _is_finite_real, _is_open_unit, _is_real, _is_whole
from .errors import InvalidInput

_GAMMA_EPS = 1e-15
_GAMMA_MAX_ITER = 300


def regularized_gamma_p(a: float, x: float) -> float:
    """P(a, x) = lower incomplete gamma / Gamma(a), for a > 0, x >= 0."""
    if a <= 0.0:
        raise InvalidInput(f"shape must be > 0, got {a!r}")
    if x < 0.0:
        raise InvalidInput(f"argument must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_GAMMA_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    f = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return f * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _check_df(df) -> None:
    if not _is_whole(df, 1):
        raise InvalidInput(f"df must be an integer >= 1, got {df!r}")


def _check_level(value, name: str = "q") -> float:
    if not _is_open_unit(value):
        raise InvalidInput(f"{name} must be a number in (0,1), got {value!r}")
    return float(value)


def _check_x(x) -> None:
    # +-inf passes: power_approx can pass normal_cdf an infinite argument
    if not (_is_finite_real(x) or (_is_real(x) and abs(x) == math.inf)):
        raise InvalidInput(f"x must be a real number or +-inf, got {x!r}")


def chi2_cdf(x: float, df: int) -> float:
    _check_x(x)
    _check_df(df)
    if x <= 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    return regularized_gamma_p(0.5 * df, 0.5 * x)


def chi2_quantile(q: float, df: int) -> float:
    """(Lower) quantile of the chi-square law, by bisection on its CDF P(df/2, x/2)."""
    _check_level(q)
    _check_df(df)
    hi = df + 10.0 * math.sqrt(2.0 * df) + 20.0
    while regularized_gamma_p(0.5 * df, 0.5 * hi) < q:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if regularized_gamma_p(0.5 * df, 0.5 * mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def normal_cdf(x: float) -> float:
    _check_x(x)
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(q: float) -> float:
    """Standard normal quantile by bisection on the cdf erfc(-x/sqrt(2))/2;
    accurate to ~1e-13.  Levels above 1/2 are reflected: 1 - q is exact
    there, while the cdf rounds near 1."""
    _check_level(q)
    if q > 0.5:
        return -normal_quantile(1.0 - q)
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)
