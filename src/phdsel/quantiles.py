"""The normal distribution function and the normal and chi-square quantiles.

Self-contained so test thresholds are bit-reproducible across platforms:
the incomplete gamma tails use the classical series/continued-fraction
split, chi-square quantiles bisect the tail that keeps its digits, and the
normal quantile is the standard library's inverse cdf."""

from __future__ import annotations

import math

from .cells import _is_finite_real, _is_open_unit, _is_real, _is_whole
from .errors import InvalidInput

_GAMMA_EPS = 1e-15


def _gamma_tails(a: float, x: float) -> tuple[float, float]:
    """(P, Q), the regularized incomplete gamma tails at a > 0, x in [0, inf].
    The series gives P below a + 1 and the continued fraction Q above, each
    the tail it keeps accurate; the other is 1 minus it.  No validation."""
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    # near x = a both loops need about sqrt(a) terms: 558 at a = 5e3, 5277 at 5e5
    terms = 300 + int(10.0 * math.sqrt(a))
    if x < a + 1.0:
        p = _gamma_p_series(a, x, terms)
        return p, 1.0 - p
    q = _gamma_q_contfrac(a, x, terms)
    return 1.0 - q, q


def _gamma_p_series(a: float, x: float, terms: int) -> float:
    term = total = 1.0 / a
    for i in range(1, terms + 1):
        term *= x / (a + i)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float, terms: int) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b  # b >= 2: the fraction runs only for x >= a + 1
    f = d
    for i in range(1, terms + 1):
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


def _check_level(value) -> float:
    if not _is_open_unit(value):
        raise InvalidInput(f"q must be a number in (0,1), got {value!r}")
    return float(value)


def _check_x(x) -> None:
    # +-inf passes: power_approx can pass normal_cdf an infinite argument
    if not (_is_finite_real(x) or (_is_real(x) and abs(x) == math.inf)):
        raise InvalidInput(f"x must be a real number or +-inf, got {x!r}")


def chi2_quantile(q: float, df: int) -> float:
    """Chi-square quantile, bisected to a relative width of 1e-12 on P(df/2, x/2)
    for q <= 1/2 and above on Q against the exact 1 - q, as P rounds near 1."""
    q = _check_level(q)
    _check_df(df)
    upper = q > 0.5

    def below(x: float) -> bool:  # x lies below the quantile
        p, tail = _gamma_tails(0.5 * df, 0.5 * x)
        return tail > 1.0 - q if upper else p < q

    lo, hi = 0.0, df + 10.0 * math.sqrt(2.0 * df) + 20.0
    while below(hi):
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
        if hi - lo < 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def normal_cdf(x: float) -> float:
    _check_x(x)
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(q: float) -> float:
    """Standard normal quantile: the standard library's inverse cdf
    (Wichura's AS 241, about 1e-16 relative), which takes levels above 1/2
    from the exact 1 - q."""
    # imported here: statistics loads fractions and decimal, ~6 ms of start-up
    from statistics import NormalDist
    return NormalDist().inv_cdf(_check_level(q))
