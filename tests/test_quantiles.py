import math

import numpy as np
import pytest
from scipy import stats

from phdsel import InvalidInput, chi2_quantile, normal_cdf, normal_quantile
from phdsel.quantiles import _gamma_tails


class TestChiSquare:
    def test_table_value_df6(self):
        assert chi2_quantile(0.95, 6) == pytest.approx(12.5916, abs=2e-4)
        assert chi2_quantile(0.95, 6) == pytest.approx(stats.chi2.ppf(0.95, 6), rel=1e-10)

    # relative only: the default absolute 1e-12 of approx hides lower-tail
    # errors; above 1/2 the reference is the upper tail at the exact 1 - q
    @pytest.mark.parametrize("df", [1, 2, 5, 6, 10, 30])
    @pytest.mark.parametrize("q", [1e-17, 1e-10, 1e-6, 0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999,
                                   1 - 1e-8, 1 - 1e-10, 1 - 2**-53])
    def test_quantile_matches_scipy(self, df, q):
        expected = stats.chi2.ppf(q, df) if q <= 0.5 else stats.chi2.isf(1 - q, df)
        assert chi2_quantile(q, df) == pytest.approx(expected, rel=1e-11, abs=0)

    # near x = a the gamma loops need about sqrt(a) terms, far more than 300
    @pytest.mark.parametrize("df", [10**4, 10**5, 10**6])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
    def test_quantile_matches_scipy_at_large_df(self, df, q):
        expected = stats.chi2.ppf(q, df) if q <= 0.5 else stats.chi2.isf(1 - q, df)
        assert chi2_quantile(q, df) == pytest.approx(expected, rel=1e-11, abs=0)

    # the chi-square tails are the gamma tails at (df/2, x/2): gof_test's
    # p-value is the upper one
    @pytest.mark.parametrize("df", [1, 4, 6, 17])
    def test_cdf_matches_scipy(self, df):
        for x in np.linspace(0.01, 60.0, 40):
            p, q = _gamma_tails(0.5 * df, 0.5 * x)
            assert p == pytest.approx(stats.chi2.cdf(x, df), abs=1e-12)
            assert q == pytest.approx(stats.chi2.sf(x, df), abs=1e-12)

    def test_cdf_quantile_round_trip(self):
        for q in (0.05, 0.5, 0.95):
            p, _ = _gamma_tails(3.0, 0.5 * chi2_quantile(q, 6))
            assert p == pytest.approx(q, abs=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInput):
            chi2_quantile(0.0, 6)
        # df is a whole number >= 1: 2.5 and True used to pass as 2.5 and 1
        for df in (0, 2.5, True):
            with pytest.raises(InvalidInput, match=f"df must be an integer >= 1, got {df!r}"):
                chi2_quantile(0.5, df)


class TestRegularizedGamma:
    def test_matches_scipy(self):
        from scipy.special import gammainc, gammaincc
        for a in (0.5, 1.0, 3.0, 10.0):
            for x in (0.01, 0.5, 1.0, 5.0, 30.0):
                p, q = _gamma_tails(a, x)
                assert p == pytest.approx(gammainc(a, x), abs=1e-13)
                assert q == pytest.approx(gammaincc(a, x), abs=1e-13)

    def test_each_tail_keeps_its_digits(self):
        from scipy.special import gammainc, gammaincc
        # relative only: both values are far below approx's default abs 1e-12
        assert _gamma_tails(3.0, 200.0)[1] == pytest.approx(gammaincc(3.0, 200.0),
                                                            rel=1e-13, abs=0)
        assert _gamma_tails(3.0, 1e-6)[0] == pytest.approx(gammainc(3.0, 1e-6),
                                                           rel=1e-13, abs=0)

    # the chi-square median at large df, where the loops need about sqrt(a) terms
    @pytest.mark.parametrize("df", [10**4, 10**5, 10**6])
    def test_half_at_the_chi_square_median_at_large_shape(self, df):
        p, q = _gamma_tails(0.5 * df, 0.5 * stats.chi2.median(df))
        assert p == pytest.approx(0.5, abs=1e-9) and q == pytest.approx(0.5, abs=1e-9)

    def test_edges(self):
        assert _gamma_tails(2.0, 0.0) == (0.0, 1.0)
        assert _gamma_tails(2.0, math.inf) == (1.0, 0.0)


class TestNormal:
    def test_two_sided_five_percent_point(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert abs(normal_quantile(0.975) - stats.norm.ppf(0.975)) <= 1e-15

    # the inverse takes the upper tail from the exact 1 - q, where the cdf
    # would round to 1
    @pytest.mark.parametrize("q", [1e-17, 0.001, 0.05, 0.2, 0.5, 0.8, 0.975, 0.999,
                                   1 - 1e-6, 1 - 1e-10, 1 - 2**-53])
    def test_quantile_matches_scipy(self, q):
        assert normal_quantile(q) == pytest.approx(stats.norm.ppf(q), abs=1e-12)

    def test_cdf_matches_scipy(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert normal_cdf(x) == pytest.approx(stats.norm.cdf(x), abs=1e-14)

    def test_median_is_exactly_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_round_trip(self):
        for q in (0.025, 0.5, 0.9):
            assert normal_cdf(normal_quantile(q)) == pytest.approx(q, abs=1e-12)


def test_cdf_at_infinity_is_its_limit():
    # power_approx can hand normal_cdf an infinite argument
    assert normal_cdf(math.inf) == 1.0 and normal_cdf(-math.inf) == 0.0
