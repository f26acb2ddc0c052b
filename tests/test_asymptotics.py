import math

import numpy as np
import pytest
from scipy import stats as sps

from phdsel import (BinnedSample, BoundaryParameter, CellPartition,
                    DegenerateVariance, InvalidParameter, asymptotic_matrices,
                    default_partition, fisher_info, fit_phd_to_probs,
                    geometric_model, jacobian, lambda_correct, lambda_star_hat,
                    m_matrix, minimize_phd, mixture_cell_probs, omega_sq,
                    penalized_hellinger, poisson_model, sigma)


def analytic_poisson_jacobian(lam, part):
    """d/dlam of the Poisson cell probabilities: pmf(x-1) - pmf(x) summed."""
    xs = np.arange(0, 400)
    dpmf = sps.poisson.pmf(xs - 1, lam) - sps.poisson.pmf(xs, lam)
    out = np.zeros(part.m)
    np.add.at(out, part.bin_indices(xs), dpmf)
    return out[:, None]


class TestSigma:
    def test_two_cell_hand_value(self):
        S = sigma([0.5, 0.5])
        np.testing.assert_allclose(S, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            S = sigma(rng.dirichlet(np.ones(7)))
            np.testing.assert_allclose(S.sum(axis=1), np.zeros(7), atol=1e-15)

    def test_vertex_degenerates_to_zero_matrix(self):
        S = sigma([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(S, np.zeros((3, 3)))

    def test_positive_semidefinite_quadratic_forms(self):
        rng = np.random.default_rng(5)
        S = sigma(rng.dirichlet(np.ones(8)))
        for _ in range(1000):
            x = rng.normal(size=8)
            assert x @ S @ x >= -1e-12


class TestJacobian:
    def test_columns_sum_to_zero(self):
        J = jacobian(poisson_model(), [4.0])
        assert abs(J.sum(axis=0)[0]) <= 1e-8
        J = jacobian(geometric_model(), [0.2])
        assert abs(J.sum(axis=0)[0]) <= 1e-8

    def test_poisson_first_cell_derivative(self):
        J = jacobian(poisson_model(), [4.0])
        assert J[0, 0] == pytest.approx(-math.exp(-4.0), rel=1e-6)

    def test_geometric_single_point_cell_derivative(self):
        # cell [1,2) holds only x=1 with pmf p, so the derivative is 1
        J = jacobian(geometric_model(), [0.2])
        assert J[1, 0] == pytest.approx(1.0, rel=1e-8)

    def test_geometric_zero_cell_derivative_is_exactly_zero(self):
        J = jacobian(geometric_model(), [0.2])
        assert J[0, 0] == 0.0

    def test_matches_analytic_poisson_derivative(self):
        for lam in (1.5, 4.0, 9.0):
            J = jacobian(poisson_model(), [lam])
            np.testing.assert_allclose(
                J, analytic_poisson_jacobian(lam, default_partition()),
                rtol=1e-5, atol=1e-10)

    def test_boundary_parameter_rejected(self):
        model = poisson_model()
        with pytest.raises(BoundaryParameter):
            jacobian(model, [model.bounds[0][0]])
        with pytest.raises(BoundaryParameter):
            jacobian(model, [model.bounds[0][1]])


class TestFisherInfo:
    def test_scalar_information_is_positive(self):
        info = fisher_info(poisson_model(), [4.0])
        assert info.shape == (1, 1)
        assert info[0, 0] > 0.0

    def test_matches_analytic_jacobian_oracle(self):
        part = default_partition()
        J = analytic_poisson_jacobian(4.0, part)
        cells = poisson_model().cell_prob([4.0])
        oracle = float(np.sum(J[:, 0] ** 2 / cells))
        info = fisher_info(poisson_model(), [4.0])
        assert info[0, 0] == pytest.approx(oracle, rel=1e-5)

    def test_coarsening_cannot_increase_information(self):
        fine = poisson_model()
        merged = poisson_model(CellPartition(cuts=(0.0, 2.0, 3.0, 4.0, 5.0,
                                                   6.0, 7.0, math.inf)))
        i_fine = fisher_info(fine, [4.0])[0, 0]
        i_merged = fisher_info(merged, [4.0])[0, 0]
        assert i_merged <= i_fine + 1e-8


class TestMMatrix:
    def test_projection_reproduces_jacobian(self):
        for model, theta in ((poisson_model(), [4.0]), (geometric_model(), [0.2])):
            M = m_matrix(model, theta)
            J = jacobian(model, theta)
            np.testing.assert_allclose(M @ J, J, atol=1e-8)

    def test_rank_one_for_scalar_parameter(self):
        M = m_matrix(poisson_model(), [4.0])
        svals = np.linalg.svd(M, compute_uv=False)
        assert svals[0] > 1e-3
        assert svals[1] / svals[0] < 1e-8

    def test_annihilates_zero_residual(self):
        model = poisson_model()
        M = m_matrix(model, [4.0])
        resid = model.cell_prob([4.0]) - model.cell_prob([4.0])
        np.testing.assert_array_equal(M @ resid, np.zeros(8))


class TestLambdaCorrect:
    def test_symmetric(self):
        L = lambda_correct(poisson_model(), [4.0])
        assert np.max(np.abs(L - L.T)) < 1e-10

    def test_positive_semidefinite(self):
        L = lambda_correct(poisson_model(), [4.0])
        assert np.linalg.eigvalsh(L).min() >= -1e-10

    def test_projection_removes_variance(self):
        model = poisson_model()
        L = lambda_correct(model, [4.0])
        S = sigma(model.cell_prob([4.0]))
        assert np.trace(L) <= np.trace(S) + 1e-8

    def test_monte_carlo_covariance_oracle(self):
        # covariance of sqrt(n)(phat - fitted probs) under the true model
        model = poisson_model()
        part = model.partition
        n, reps = 2000, 5000
        rng = np.random.default_rng(71)
        X = np.empty((reps, 8))
        for r in range(reps):
            counts = np.bincount(part.bin_indices(rng.poisson(4.0, n)), minlength=8)
            fit = minimize_phd(model, BinnedSample(counts=counts), 1.0)
            X[r] = math.sqrt(n) * (counts / n - model.cell_prob(fit.theta_hat))
        L = lambda_correct(model, [4.0])
        prods = X[:, :, None] * X[:, None, :]
        emp = prods.mean(axis=0)
        boot = np.empty((200, 8, 8))
        for b in range(200):
            idx = rng.integers(0, reps, reps)
            boot[b] = prods[idx].mean(axis=0)
        se = boot.std(axis=0, ddof=1)
        assert np.all(np.abs(emp - L) <= 3.0 * se + 1e-4)


class TestOmegaSq:
    def test_zero_under_correct_specification(self):
        model = poisson_model()
        P = model.cell_prob([4.0])
        assert omega_sq(P, model, [4.0], 0.5) == 0.0

    def test_invariant_under_cell_permutation(self):
        from phdsel import DiscreteModel
        base = poisson_model()
        P = mixture_cell_probs(0.75, base.partition)
        theta1 = fit_phd_to_probs(base, P, 0.5).theta_hat
        om = omega_sq(P, base, theta1, 0.5)
        rng = np.random.default_rng(73)
        perm = rng.permutation(8)
        permuted = DiscreteModel(name="perm", bounds=base.bounds,
                                 partition=base.partition,
                                 cell_fn=lambda th: base.cell_fn(th)[:, perm])
        om_perm = omega_sq(P[perm], permuted, theta1, 0.5)
        assert om_perm == pytest.approx(om, rel=1e-6)

    def test_monte_carlo_variance_oracle(self):
        # sqrt(n) (fitted distance - population distance) under misspecification
        model = poisson_model()
        part = model.partition
        h = 0.5
        P = mixture_cell_probs(0.75, part)
        pop_fit = fit_phd_to_probs(model, P, h)
        om = omega_sq(P, model, pop_fit.theta_hat, h)
        assert om > 0.0
        n, reps = 5000, 1500
        rng = np.random.default_rng(79)
        vals = np.empty(reps)
        for r in range(reps):
            data = np.where(rng.random(n) < 0.75, rng.poisson(4.0, n),
                            rng.geometric(0.2, n))
            counts = np.bincount(part.bin_indices(data), minlength=8)
            fit = minimize_phd(model, BinnedSample(counts=counts), h)
            vals[r] = math.sqrt(n) * (fit.objective - pop_fit.objective)
        emp = vals.var(ddof=1)
        boot = np.empty(200)
        for b in range(200):
            idx = rng.integers(0, reps, reps)
            boot[b] = vals[idx].var(ddof=1)
        se = boot.std(ddof=1)
        assert abs(emp - om) <= 3.0 * se


class TestLambdaStarHat:
    def _fitted_pair(self, seed=83, n=300, h=0.5, pi=1.0):
        part = default_partition()
        pois, geom = poisson_model(part), geometric_model(part)
        rng = np.random.default_rng(seed)
        data = np.where(rng.random(n) < pi, rng.poisson(4.0, n),
                        rng.geometric(0.2, n))
        counts = np.bincount(part.bin_indices(data), minlength=8)
        sample = BinnedSample(counts=counts)
        f1 = minimize_phd(pois, sample, h)
        f2 = minimize_phd(geom, sample, h)
        return sample.frequencies(), pois, f1, geom, f2

    def test_identical_models_degenerate(self):
        phat, pois, f1, _, _ = self._fitted_pair()
        with pytest.raises(DegenerateVariance):
            lambda_star_hat(phat, pois, f1.theta_hat, pois, f1.theta_hat, 0.5)

    def test_block_matrix_symmetric_psd(self):
        phat, pois, f1, geom, f2 = self._fitted_pair()
        sv = lambda_star_hat(phat, pois, f1.theta_hat, geom, f2.theta_hat, 0.5)
        star = sv.LambdaStar
        assert star.shape == (16, 16)
        np.testing.assert_allclose(star, star.T, atol=1e-12)
        eig = np.linalg.eigvalsh(star)
        assert eig.min() >= -1e-8 * max(eig.max(), 1.0)
        np.testing.assert_allclose(star[:8, :8], sigma(phat), atol=1e-15)

    def test_projected_gradients_vanish_at_interior_fit(self):
        # stationarity of the fit makes M^T Q negligible, so the variance
        # reduces to the first-argument gradient difference
        phat, pois, f1, geom, f2 = self._fitted_pair()
        sv = lambda_star_hat(phat, pois, f1.theta_hat, geom, f2.theta_hat, 0.5)
        M1 = m_matrix(pois, f1.theta_hat)
        M2 = m_matrix(geom, f2.theta_hat)
        assert np.max(np.abs(M1.T @ sv.Q1)) < 1e-4
        assert np.max(np.abs(M2.T @ sv.Q2)) < 1e-4
        v = sv.K1 - sv.K2
        assert sv.GammaSq == pytest.approx(float(v @ sigma(phat) @ v), rel=1e-3)

    def test_structural_zero_cell_does_not_blow_up(self):
        # Poisson data put mass on the cell where the geometric has none;
        # the per-model projection must keep the variance finite and modest
        phat, pois, f1, geom, f2 = self._fitted_pair(seed=89, n=300, pi=1.0)
        assert phat[0] > 0.0
        sv = lambda_star_hat(phat, pois, f1.theta_hat, geom, f2.theta_hat, 0.5)
        assert 0.0 < sv.GammaSq < 10.0

    def test_studentized_statistic_sd_near_equidistance(self):
        # replicated selection statistic at the near-equidistant mixture
        from phdsel import model_select
        part = default_partition()
        pois, geom = poisson_model(part), geometric_model(part)
        rng = np.random.default_rng(97)
        n, reps = 300, 400
        his = np.empty(reps)
        for r in range(reps):
            data = np.where(rng.random(n) < 0.535, rng.poisson(4.0, n),
                            rng.geometric(0.2, n))
            counts = np.bincount(part.bin_indices(data), minlength=8)
            rep = model_select(BinnedSample(counts=counts), pois, geom, 0.5)
            his[r] = rep.hi
        assert 0.67 <= his.std(ddof=1) <= 1.1


class TestAsymptoticMatrices:
    def test_bundle_consistency(self):
        model = poisson_model()
        am = asymptotic_matrices(model, [4.0])
        np.testing.assert_allclose(am.I, fisher_info(model, [4.0]), rtol=1e-12)
        np.testing.assert_allclose(am.M, m_matrix(model, [4.0]), rtol=1e-12)
        np.testing.assert_allclose(am.Lambda, lambda_correct(model, [4.0]), rtol=1e-10)
        np.testing.assert_allclose(am.D * np.sqrt(model.cell_prob([4.0]))[:, None],
                                   am.J, rtol=1e-12)
