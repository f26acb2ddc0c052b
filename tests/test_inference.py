import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phdsel import (FAVOR_FIRST, FAVOR_SECOND, INDECISIVE, BinnedSample,
                    CellPartition, DegenerateVariance, DiscreteModel,
                    InvalidInput, InvalidParameter, chi2_quantile, decide, default_partition,
                    geometric_model, gof_test, model_select, normal_quantile,
                    parse_cuts, penalized_hellinger, poisson_model, power_approx,
                    required_sample_size)

from kernel_helpers import permuted_kernel


@st.composite
def edge_samples(draw):
    """A partition and a count vector on it: arbitrary counts, or all of
    the sample in one cell."""
    part = draw(st.sampled_from(
        (default_partition(), parse_cuts("1,2,5,10,20,50,100,1000,10000"))))
    if draw(st.booleans()):
        counts = np.zeros(part.m, dtype=int)
        counts[draw(st.integers(0, part.m - 1))] = draw(st.integers(1, 300))
    else:
        counts = np.array(draw(st.lists(st.integers(0, 60), min_size=part.m,
                                        max_size=part.m)))
        counts[draw(st.integers(0, part.m - 1))] += 1
    return part, BinnedSample(counts=counts)


def binned(rng, n, pi=1.0, part=None):
    part = part or default_partition()
    data = np.where(rng.random(n) < pi, rng.poisson(4.0, n), rng.geometric(0.2, n))
    counts = np.bincount(part.bin_indices(data), minlength=part.m)
    return BinnedSample(counts=counts)


class TestGofTest:
    def test_degrees_of_freedom_and_critical_value(self):
        rng = np.random.default_rng(3)
        report = gof_test(binned(rng, 200), poisson_model(), 1.0, 0.05)
        assert report.df == 6
        assert report.critical == pytest.approx(12.5916, abs=2e-4)

    def test_zero_statistic_never_rejects(self):
        part = CellPartition(cuts=(0.0, 1.0, 2.0, math.inf))

        def kernel(theta, out):
            out[:] = np.hstack([theta, 0.5 * (1.0 - theta)])

        model = DiscreteModel(name="wedge", bounds=((0.05, 0.9),),
                              partition=part, kernel=kernel)
        sample = BinnedSample(counts=np.array([2, 4, 4]))
        for alpha in (0.01, 0.05, 0.5, 0.99):
            report = gof_test(sample, model, 0.5, alpha)
            assert report.statistic <= 1e-10
            assert not report.reject
            assert report.p_value > 0.99

    def test_null_rejection_rate_and_statistic_mean(self):
        # light version of the chi-square law check (full run in acceptance)
        rng = np.random.default_rng(7)
        n, reps = 2000, 600
        model = poisson_model()
        stats_ = np.empty(reps)
        rejects = 0
        for r in range(reps):
            report = gof_test(binned(rng, n), model, 1.0, 0.05)
            stats_[r] = report.statistic
            rejects += report.reject
        assert 5.4 <= stats_.mean() <= 6.6
        assert 0.02 <= rejects / reps <= 0.09

    def test_p_value_keeps_its_digits_far_in_the_upper_tail(self):
        from scipy import stats
        part = default_partition()
        data = np.array([0] * 50 + [7] * 50)
        sample = BinnedSample(counts=np.bincount(part.bin_indices(data), minlength=part.m))
        report = gof_test(sample, poisson_model(), 0.5)
        assert report.statistic == pytest.approx(234.309, abs=1e-3)
        assert report.p_value == pytest.approx(stats.chi2.sf(report.statistic, report.df),
                                               rel=1e-10, abs=0)

    def test_permutation_invariance_of_statistic(self):
        base = poisson_model()
        rng = np.random.default_rng(11)
        sample = binned(rng, 150)
        perm = rng.permutation(8)
        permuted = DiscreteModel(name="perm", bounds=base.bounds,
                                 partition=base.partition,
                                 kernel=permuted_kernel(base, perm))
        r1 = gof_test(sample, base, 0.5)
        r2 = gof_test(BinnedSample(counts=sample.counts[perm]), permuted, 0.5)
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-8)

    def test_insufficient_cells_rejected(self):
        part = CellPartition(cuts=(0.0, 1.0, 2.0, math.inf))
        model = poisson_model(part)  # m=3, k=1 -> df=1, fine
        rng = np.random.default_rng(13)
        gof_test(binned(rng, 50, part=part), model, 0.5)  # should not raise
        with pytest.raises(InvalidInput):
            gof_test(binned(rng, 50, part=part), model, 0.5, alpha=1.5)


class TestPowerApprox:
    def test_half_power_at_the_critical_point(self):
        # 2 n D = q makes the normal argument zero
        q = chi2_quantile(0.95, 6)
        n = 500
        D = q / (2.0 * n)
        assert power_approx(D, 0.5, n, 0.05, 6) == pytest.approx(0.5, abs=1e-12)

    def test_zero_distance_power_stays_below_level_when_argument_is_extreme(self):
        # at a vanishing distance the approximation reduces to
        # 1 - F(q / (2 sqrt(n) omega)), which sits below alpha whenever the
        # argument clears the one-sided normal quantile
        from phdsel import chi2_quantile, normal_cdf
        q = chi2_quantile(0.95, 6)
        omega_sq_val = 0.25
        n = 25
        beta = power_approx(1e-15, omega_sq_val, n, 0.05, 6)
        expected = 1.0 - normal_cdf(q / (2.0 * math.sqrt(n) * 0.5))
        assert beta == pytest.approx(expected, abs=1e-9)
        assert beta < 0.05
        assert power_approx(1e-15, omega_sq_val, 10**6, 0.05, 6) < 0.5

    @pytest.mark.parametrize("D", [1.0, 0.0])
    def test_overflowing_products_give_the_limit(self, D):
        # 2 n D and 2 sqrt(n) sqrt(omega_sq) overflow a double, yet the normal
        # argument is -sqrt(n) D / sqrt(omega_sq) = -D up to a vanishing term
        from scipy import stats
        assert power_approx(D, 1e308, 1e308, 0.05, 6) == pytest.approx(stats.norm.cdf(D),
                                                                       rel=1e-15)

    def test_large_n_power_tends_to_one(self):
        assert power_approx(0.05, 0.25, 10**5, 0.05, 6) > 1.0 - 1e-9

    def test_monotone_in_n_beyond_critical_point(self):
        q = chi2_quantile(0.95, 6)
        D = 0.01
        ns = [int(v) for v in np.linspace(q / (2 * D) + 1, 5000, 40)]
        powers = [power_approx(D, 0.3, n, 0.05, 6) for n in ns]
        assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))

    def test_rejects_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            power_approx(0.01, 0.0, 100, 0.05, 6)

    @pytest.mark.parametrize("D, om, n", [(math.nan, 0.3, 100), (math.inf, 0.3, 100),
                                          (0.01, math.nan, 100), (0.01, math.inf, 100),
                                          (0.01, 0.3, math.nan), (0.01, 0.3, math.inf)])
    def test_rejects_non_finite_inputs(self, D, om, n):
        with pytest.raises(InvalidInput):
            power_approx(D, om, n, 0.05, 6)


class TestRequiredSampleSize:
    def test_half_target_reduces_to_critical_point(self):
        # normal quantile vanishes at beta* = 1/2, so 2 n* D = q exactly
        q = chi2_quantile(0.95, 6)
        D = 0.013
        n0 = required_sample_size(D, 0.4, 0.05, 0.5, 6)
        n_star = q / (2.0 * D)
        assert n0 == math.floor(n_star) + 1

    def test_inverse_distance_scaling_at_half_target(self):
        D = 0.008
        n_small = required_sample_size(2 * D, 0.4, 0.05, 0.5, 6)
        n_large = required_sample_size(D, 0.4, 0.05, 0.5, 6)
        assert n_small == pytest.approx(n_large / 2, abs=1.0)

    def test_round_trip_against_power(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 20:
            D = float(rng.uniform(0.004, 0.1))
            om = float(rng.uniform(0.01, 1.0))
            beta = float(rng.uniform(0.05, 0.95))
            n0 = required_sample_size(D, om, 0.05, beta, 6)
            if n0 < 3:
                continue
            assert power_approx(D, om, n0, 0.05, 6) >= beta - 0.02
            assert power_approx(D, om, n0 - 2, 0.05, 6) <= beta + 0.02
            done += 1

    def test_rejects_zero_distance(self):
        with pytest.raises(InvalidInput):
            required_sample_size(0.0, 0.3, 0.05, 0.8, 6)

    @pytest.mark.parametrize("D, om", [(math.nan, 0.3), (math.inf, 0.3),
                                       (0.01, math.nan), (0.01, math.inf)])
    @pytest.mark.parametrize("beta", [0.2, 0.8])
    def test_rejects_non_finite_inputs(self, D, om, beta):
        with pytest.raises(InvalidInput):
            required_sample_size(D, om, 0.05, beta, 6)

    def test_rejects_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            required_sample_size(0.01, 0.0, 0.05, 0.8, 6)

    @pytest.mark.parametrize("D", [1e-160, 1e-170])
    def test_rejects_distance_whose_size_overflows(self, D):
        # 2 D^2 overflows the quotient at 1e-160 and underflows to 0 at 1e-170
        with pytest.raises(InvalidInput):
            required_sample_size(D, 0.3, 0.05, 0.8, 6)
        assert required_sample_size(1e-150, 0.3, 0.05, 0.8, 6) > 10**299

    @pytest.mark.parametrize("beta", [0.2, 0.8])
    def test_rejects_variance_whose_size_overflows(self, beta):
        with pytest.raises(InvalidInput, match="omega_sq=1e\\+308"):
            required_sample_size(0.01, 1e308, 0.05, beta, 6)


class TestDecide:
    def test_thresholds_and_closed_boundary(self):
        z = normal_quantile(0.975)
        assert decide(-z - 0.001, z) == FAVOR_FIRST
        assert decide(z + 0.001, z) == FAVOR_SECOND
        assert decide(0.0, z) == INDECISIVE
        assert decide(z, z) == INDECISIVE
        assert decide(-z, z) == INDECISIVE


class TestModelSelect:
    def test_poisson_data_favor_poisson(self):
        rng = np.random.default_rng(19)
        sample = binned(rng, 300, pi=1.0)
        report = model_select(sample, poisson_model(), geometric_model(), 0.5)
        assert report.decision == FAVOR_FIRST
        assert report.hi < -report.z
        assert not report.degenerate

    @given(edge_samples(), st.sampled_from([0.5, 1.0]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_antisymmetry_under_model_swap(self, drawn, h):
        part, sample = drawn
        pois, geom = poisson_model(part), geometric_model(part)
        fwd = model_select(sample, pois, geom, h)
        rev = model_select(sample, geom, pois, h)
        assert (rev.d1, rev.d2) == (fwd.d2, fwd.d1)
        assert rev.degenerate == fwd.degenerate
        if fwd.degenerate:
            assert math.isnan(fwd.hi) and math.isnan(rev.hi)
        else:
            assert abs(fwd.hi + rev.hi) <= 1e-12 * abs(fwd.hi)
            assert rev.gamma_hat == pytest.approx(fwd.gamma_hat, rel=1e-12)
        swap = {FAVOR_FIRST: FAVOR_SECOND, FAVOR_SECOND: FAVOR_FIRST,
                INDECISIVE: INDECISIVE}
        assert rev.decision == swap[fwd.decision]

    def test_identical_models_are_degenerate_indecisive(self):
        rng = np.random.default_rng(29)
        sample = binned(rng, 100)
        report = model_select(sample, poisson_model(), poisson_model(), 0.5)
        assert report.degenerate
        assert report.degenerate_reason == "identical_fits"
        assert report.decision == INDECISIVE
        assert math.isnan(report.hi)

    @pytest.mark.parametrize("cell", [0, 3, 7])
    def test_one_occupied_cell_is_zero_variance_indecisive(self, cell):
        # an all-zeros sample (cell 0) fits Poisson almost exactly and the
        # geometric not at all, yet the plug-in variance is exactly zero
        counts = np.zeros(8, dtype=int)
        counts[cell] = 20
        report = model_select(BinnedSample(counts=counts), poisson_model(),
                              geometric_model(), 0.5)
        assert report.d1 != report.d2
        assert report.degenerate
        assert report.degenerate_reason == "zero_variance"
        assert report.decision == INDECISIVE
        assert math.isnan(report.hi)

    def test_regular_selection_has_no_degenerate_reason(self):
        report = model_select(binned(np.random.default_rng(29), 100), poisson_model(),
                              geometric_model(), 0.5)
        assert not report.degenerate
        assert report.degenerate_reason == ""

    def test_distances_match_fits(self):
        rng = np.random.default_rng(31)
        sample = binned(rng, 120)
        report = model_select(sample, poisson_model(), geometric_model(), 0.5)
        assert report.d1 == report.fit1.objective
        assert report.d2 == report.fit2.objective

    def test_distances_are_the_penalized_hellinger_at_each_estimate(self):
        # d_j is the definition evaluated at fit j's cells, at the weight h
        rng = np.random.default_rng(43)
        one_cell = BinnedSample(counts=np.eye(8, dtype=int)[5] * 20)
        pois, geom = poisson_model(), geometric_model()
        for sample in (binned(rng, 40), binned(rng, 200, pi=0.0), one_cell):
            phat = sample.frequencies()
            for h in (1e-3, 0.5, 1.0, 50.0):
                report = model_select(sample, pois, geom, h)
                assert report.d1 == penalized_hellinger(
                    phat, pois.cell_prob(report.fit1.theta_hat), h)
                assert report.d2 == penalized_hellinger(
                    phat, geom.cell_prob(report.fit2.theta_hat), h)

    def test_models_on_different_partitions_are_refused(self):
        # both partitions have 8 cells; only their last finite cut differs
        other = parse_cuts("1,2,3,4,5,6,100")
        sample = binned(np.random.default_rng(37), 100)
        with pytest.raises(InvalidInput, match=re.escape(repr(other.cuts))):
            model_select(sample, poisson_model(), geometric_model(other), 0.5)

    def test_weight_above_the_cap_is_refused(self):
        sample = binned(np.random.default_rng(41), 100)
        for h in (1e300, 10**101, 1.0000000000000002e100):
            with pytest.raises(InvalidParameter, match=re.escape(f"got {h!r}")):
                model_select(sample, poisson_model(), geometric_model(), h)
