import math

import numpy as np
import pytest

from phdsel import (FAVOR_FIRST, FAVOR_SECOND, INDECISIVE, BinnedSample,
                    CellPartition, DegenerateVariance, DiscreteModel,
                    InvalidInput, chi2_quantile, decide, default_partition,
                    geometric_model, gof_test, model_select, normal_quantile,
                    poisson_model, power_approx, required_sample_size)


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

        def cell_fn(theta):
            t = theta[:, :1]
            return np.hstack([t, 0.5 * (1.0 - t), 0.5 * (1.0 - t)])

        model = DiscreteModel(name="wedge", bounds=((0.05, 0.9),),
                              partition=part, cell_fn=cell_fn)
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

    def test_permutation_invariance_of_statistic(self):
        base = poisson_model()
        rng = np.random.default_rng(11)
        sample = binned(rng, 150)
        perm = rng.permutation(8)
        permuted = DiscreteModel(name="perm", bounds=base.bounds,
                                 partition=base.partition,
                                 cell_fn=lambda th: base.cell_fn(th)[:, perm])
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

    def test_antisymmetry_under_model_swap(self):
        rng = np.random.default_rng(23)
        pois, geom = poisson_model(), geometric_model()
        for n, pi in ((40, 1.0), (300, 0.0), (300, 0.535)):
            sample = binned(rng, n, pi=pi)
            fwd = model_select(sample, pois, geom, 0.5)
            rev = model_select(sample, geom, pois, 0.5)
            assert fwd.hi == pytest.approx(-rev.hi, abs=1e-10)
            assert fwd.gamma_hat == pytest.approx(rev.gamma_hat, rel=1e-10)
            swap = {FAVOR_FIRST: FAVOR_SECOND, FAVOR_SECOND: FAVOR_FIRST,
                    INDECISIVE: INDECISIVE}
            assert rev.decision == swap[fwd.decision]

    def test_identical_models_are_degenerate_indecisive(self):
        rng = np.random.default_rng(29)
        sample = binned(rng, 100)
        report = model_select(sample, poisson_model(), poisson_model(), 0.5)
        assert report.degenerate
        assert report.decision == INDECISIVE
        assert math.isnan(report.hi)

    def test_distances_match_fits(self):
        rng = np.random.default_rng(31)
        sample = binned(rng, 120)
        report = model_select(sample, poisson_model(), geometric_model(), 0.5)
        assert report.d1 == report.fit1.objective
        assert report.d2 == report.fit2.objective
