import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import stats as sps

from phdsel import (BinnedSample, BoundaryParameter, CellPartition,
                    DegenerateVariance, DiscreteModel, InvalidParameter, MixtureDGP,
                    SingularInformation, default_partition,
                    fit_phd_to_probs, geometric_model, grad_phd_first,
                    grad_phd_second, jacobian, lambda_star_hat, m_matrix,
                    minimize_phd,
                    mixture_cell_probs, model_select, omega_sq, parse_cuts,
                    penalized_hellinger, poisson_model, sample_mixture, sigma)
from phdsel.asymptotics import PROB_FLOOR, _gradient_rows, _model_rows, _selection_rows
from phdsel.inference import _select_rows

from kernel_helpers import permuted_model

WIDE_CUTS = parse_cuts("1,2,5,10,20,50,100,1000,10000")


def analytic_poisson_jacobian(lam, part):
    """d/dlam of the Poisson cell probabilities: pmf(x-1) - pmf(x) summed."""
    xs = np.arange(0, 400)
    dpmf = sps.poisson.pmf(xs - 1, lam) - sps.poisson.pmf(xs, lam)
    out = np.zeros(part.m)
    np.add.at(out, part.bin_indices(xs), dpmf)
    return out[:, None]


@functools.lru_cache(maxsize=4096)
def mp_cell_derivatives(name, part, theta):
    """The (m,) cell derivatives of the family ``name`` on ``part`` at the
    float ``theta``, from its closed form at 40 digits, rounded once.

    With D(e) the derivative of the tail P(X >= e), cell [a, b) has the
    derivative D(a) - D(b) and the last cell D(e_{m-1}): for the Poisson
    D(e) = pmf(e - 1), for the geometric on {1, 2, ...}
    D(e) = -(e - 1) (1 - p)^(e - 2).
    """
    start = 1 if name == "geometric" else 0
    edges = [max(math.ceil(c), start) for c in part.cuts[:-1]]
    with mp.workdps(40):
        t = mp.mpf(theta)

        def tail(e):
            if name == "poisson":
                return mp.exp(-t) * t ** (e - 1) / mp.factorial(e - 1) if e >= 1 else mp.zero
            return -(e - 1) * (1 - t) ** (e - 2) if e > 1 else mp.zero

        D = [tail(e) for e in edges]
        return np.array([float(a - b) for a, b in zip(D, D[1:])] + [float(D[-1])])


def assert_exact_jacobian(J, model, theta):
    """J is the m x 1 exact derivative within 1e-13 of its largest entry."""
    ref = mp_cell_derivatives(model.name, model.partition, float(theta))
    assert J.shape == (model.partition.m, 1)
    np.testing.assert_allclose(J[:, 0], ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


# Reference: the k x k formulas that the closed one-parameter forms replaced,
# with the Jacobian from a direct call of the model's derivative rule, a
# linear solve for the projection and quadratic forms under the full
# covariance matrix.

def ref_jacobian(model, theta):
    th = model.theta_array(theta)
    for j, (lo, hi) in enumerate(model.bounds):
        if th[j] < lo or th[j] > hi:
            raise BoundaryParameter(f"theta[{j}] outside the box")
    J = np.empty((1, model.partition.m))
    model.dkernel(th[None, :], J)
    return J.T


def ref_local(model, theta):
    """Cells, Jacobian and information, which must not be singular."""
    q = model.cell_prob(theta)
    J = ref_jacobian(model, theta)
    D = J / np.sqrt(np.maximum(q, PROB_FLOOR))[:, None]
    info = D.T @ D
    if np.linalg.cond(info, 1) > 1e12:
        raise SingularInformation("singular information")
    return q, J, info


def ref_m_matrix(model, theta):
    q, J, info = ref_local(model, theta)
    return J @ np.linalg.solve(info, (J / np.maximum(q, PROB_FLOOR)[:, None]).T)


def floored_grad_second(phat, q, h):
    """Second-argument distance gradient with q floored at PROB_FLOOR, as
    the limit laws floor it: 2 (1 - sqrt(phat_i / q_i)) on occupied cells,
    2h on empty ones."""
    return np.where(phat > 0.0, 2.0 * (1.0 - np.sqrt(phat / np.maximum(q, PROB_FLOOR))),
                    2.0 * h)


def ref_gradient_form(phat, model, theta, h):
    """K + M^T Q of ``model`` at ``theta`` against ``phat``."""
    q, _, _ = ref_local(model, theta)
    K = grad_phd_first(phat, q, h)
    Q = floored_grad_second(phat, q, h)
    return K + ref_m_matrix(model, theta).T @ Q


def ref_omega_sq(p, model, theta1, h):
    w = ref_gradient_form(p, model, theta1, h)
    return max(float(w @ sigma(p) @ w), 0.0)


def ref_gamma_sq(phat, model1, theta1, model2, theta2, h):
    v = ref_gradient_form(phat, model1, theta1, h) - ref_gradient_form(phat, model2, theta2, h)
    gamma_sq = max(float(v @ sigma(phat) @ v), 0.0)
    if gamma_sq < 1e-10:
        raise DegenerateVariance("degenerate")
    return gamma_sq


def outcome(fn, *args):
    """("value", result) or ("raises", exception type) of a call."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the type is compared, so catch every error
        return "raises", type(exc)


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
                rtol=1e-12, atol=1e-15)

    def test_boundary_parameter_rejected(self):
        # on a bound the derivative is the family's exact one-sided derivative
        for model in (poisson_model(), geometric_model(), poisson_model(WIDE_CUTS),
                      geometric_model(WIDE_CUTS)):
            for theta in model.bounds[0]:
                assert_exact_jacobian(jacobian(model, [theta]), model, theta)
        with pytest.raises(BoundaryParameter):
            jacobian(poisson_model(), [-1.0])
        with pytest.raises(BoundaryParameter):
            jacobian(geometric_model(), [1.5])

    @pytest.mark.parametrize("part", [default_partition(), WIDE_CUTS], ids=["default", "wide"])
    @pytest.mark.parametrize("name", ["poisson", "geometric"])
    def test_matches_40_digit_reference_across_the_box(self, part, name):
        # the bounds, 41 points between them and, for the Poisson, the rates
        # where the default cells' last cell nears 1 (the cell sits above the
        # other cells' mass, so a difference of its probabilities cancels)
        model = poisson_model(part) if name == "poisson" else geometric_model(part)
        lo, hi = model.bounds[0]
        thetas = [lo, *np.linspace(lo, hi, 43)[1:-1], hi]
        if name == "poisson":
            thetas += [40.0, 45.0, 49.0, 50.0]
        for theta in thetas:
            assert_exact_jacobian(jacobian(model, [theta]), model, theta)

    @pytest.mark.parametrize("name", ["poisson", "geometric"])
    def test_rows_equal_single_row_calls_at_mixed_parameters(self, name):
        # rates 1 and 49 give the Poisson truncation points 53 and 173, on
        # both sides of the wide cuts' edge at 100
        model = poisson_model(WIDE_CUTS) if name == "poisson" else geometric_model(WIDE_CUTS)
        lo, hi = model.bounds[0]
        t = (np.array([1.0, 49.0, 4.0, lo, hi, 25.0, 1.0]) if name == "poisson"
             else np.array([0.2, lo, 0.9, hi, 0.01, 0.5]))
        rows = _model_rows(model, t)
        for r, theta in enumerate(t):
            one = _model_rows(model, model.theta_array([theta]))
            np.testing.assert_array_equal(rows.J[r], one.J[0])
            np.testing.assert_array_equal(rows.q[r], one.q[0])
            np.testing.assert_array_equal(jacobian(model, [theta])[:, 0], rows.J[r])
            assert_exact_jacobian(rows.J[r][:, None], model, theta)


def fisher_info(model, theta):
    """The scalar information sum J^2 / q_f by which every projection
    divides, as a 1 x 1 matrix."""
    return _model_rows(model, model.theta_array(theta)).info[:, None]


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


class TestOmegaSq:
    def test_zero_under_correct_specification(self):
        model = poisson_model()
        P = model.cell_prob([4.0])
        assert omega_sq(P, model, [4.0], 0.5) == 0.0

    def test_invariant_under_cell_permutation(self):
        base = poisson_model()
        P = mixture_cell_probs(0.75, base.partition)
        theta1 = fit_phd_to_probs(base, P, 0.5).theta_hat
        om = omega_sq(P, base, theta1, 0.5)
        rng = np.random.default_rng(73)
        perm = rng.permutation(8)
        permuted = permuted_model(base, perm, "perm")
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
        with pytest.raises(DegenerateVariance) as exc:
            lambda_star_hat(phat, pois, f1.theta_hat, pois, f1.theta_hat, 0.5)
        assert exc.value.reason == "identical_fits"

    def test_one_occupied_cell_has_zero_variance(self):
        part = default_partition()
        phat = np.eye(part.m)[3]
        with pytest.raises(DegenerateVariance) as exc:
            lambda_star_hat(phat, poisson_model(part), [3.0], geometric_model(part), [0.3], 0.5)
        assert exc.value.reason == "zero_variance"

    def test_projected_gradients_vanish_at_interior_fit(self):
        # stationarity of the fit makes M^T Q negligible, so the variance
        # reduces to the first-argument gradient difference
        phat, pois, f1, geom, f2 = self._fitted_pair()
        sv = lambda_star_hat(phat, pois, f1.theta_hat, geom, f2.theta_hat, 0.5)
        P = phat[None, :]
        K = []
        for model, fit in ((pois, f1), (geom, f2)):
            _, K_j, Q, MQ = _gradient_rows(P, P > 0.0, model, fit.theta_hat, 0.5)
            np.testing.assert_allclose(MQ[0], m_matrix(model, fit.theta_hat).T @ Q[0],
                                       rtol=1e-12, atol=1e-15)
            assert np.max(np.abs(MQ)) < 1e-4
            K.append(K_j[0])
        v = K[0] - K[1]
        assert sv == pytest.approx(float(v @ sigma(phat) @ v), rel=1e-3)

    def test_structural_zero_cell_does_not_blow_up(self):
        # Poisson data put mass on the cell where the geometric has none;
        # the per-model projection must keep the variance finite and modest
        phat, pois, f1, geom, f2 = self._fitted_pair(seed=89, n=300, pi=1.0)
        assert phat[0] > 0.0
        sv = lambda_star_hat(phat, pois, f1.theta_hat, geom, f2.theta_hat, 0.5)
        assert type(sv) is float and 0.0 < sv < 10.0

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


@st.composite
def fitted_pairs(draw):
    """Frequencies on the default or wide cuts (arbitrary counts 0-3 per
    cell, or one occupied cell), both families fitted to them, at the
    estimates as ``model_select`` takes them (on a bound where the fit ends
    there), in either order, and a penalty weight."""
    part = draw(st.sampled_from(
        (default_partition(), parse_cuts("1,2,5,10,20,50,100,1000,10000"))))
    if draw(st.booleans()):
        counts = np.zeros(part.m, dtype=int)
        counts[draw(st.integers(0, part.m - 1))] = draw(st.integers(1, 3))
    else:
        counts = np.array(draw(st.lists(st.integers(0, 3), min_size=part.m,
                                        max_size=part.m)))
        counts[draw(st.integers(0, part.m - 1))] += 1
    h = draw(st.sampled_from([0.5, 1.0]))
    sample = BinnedSample(counts=counts)
    models = [poisson_model(part), geometric_model(part)]
    if draw(st.booleans()):
        models.reverse()
    thetas = [minimize_phd(m, sample, h).theta_hat for m in models]
    return sample.frequencies(), models, thetas, h


class TestAgainstMatrixReference:
    """The closed one-parameter forms against the k x k matrix formulas."""

    @staticmethod
    def assert_same(new, ref):
        assert new[0] == ref[0], (new, ref)
        if new[0] == "raises":
            assert new[1] is ref[1]
        else:
            np.testing.assert_allclose(new[1], ref[1], rtol=1e-12, atol=1e-15)

    @given(fitted_pairs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_limit_laws_match_reference(self, drawn):
        phat, (model1, model2), (theta1, theta2), h = drawn
        self.assert_same(
            outcome(lambda_star_hat, phat, model1, theta1, model2, theta2, h),
            outcome(ref_gamma_sq, phat, model1, theta1, model2, theta2, h))
        for model, theta in ((model1, theta1), (model2, theta2)):
            np.testing.assert_array_equal(jacobian(model, theta), ref_jacobian(model, theta))
            assert_exact_jacobian(jacobian(model, theta), model, theta[0])
            for new, ref in ((fisher_info, lambda *a: ref_local(*a)[2]),
                             (m_matrix, ref_m_matrix)):
                self.assert_same(outcome(new, model, theta), outcome(ref, model, theta))
            self.assert_same(outcome(omega_sq, phat, model, theta, h),
                             outcome(ref_omega_sq, phat, model, theta, h))

    def test_selection_gradients_are_the_public_gradients(self):
        part = default_partition()
        phat = np.array([0.0, 0.1, 0.2, 0.3, 0.2, 0.1, 0.1, 0.0])
        pois, geom = poisson_model(part), geometric_model(part)
        P = phat[None, :]
        for model, theta in ((pois, [3.0]), (geom, [0.3])):
            _, (K,), (Q,), _ = _gradient_rows(P, P > 0.0, model, np.array(theta), 0.5)
            q = model.cell_prob(theta)
            np.testing.assert_array_equal(K, grad_phd_first(phat, q, 0.5))
            np.testing.assert_array_equal(Q, floored_grad_second(phat, q, 0.5))
            # no occupied cell has a probability below the floor here
            np.testing.assert_array_equal(Q, grad_phd_second(phat, q, 0.5))


class TestSingularInformation:
    def test_flat_family_has_singular_information(self):
        part = default_partition()
        flat = DiscreteModel(name="flat", bounds=((0.1, 0.9),), partition=part,
                             kernel=lambda th, out: out.fill(1.0 / part.m),
                             dkernel=lambda th, out: out.fill(0.0))
        for fn in (jacobian, m_matrix):
            with pytest.raises(SingularInformation):
                fn(flat, [0.5])
        with pytest.raises(SingularInformation):
            ref_local(flat, [0.5])


@st.composite
def row_batches(draw):
    """A mixed batch of R rows on one partition for one ordered pair of
    families, possibly the same family twice: mixture samples and samples
    with one occupied cell, each with its own penalty weight."""
    part = draw(st.sampled_from((default_partition(), WIDE_CUTS)))
    names = draw(st.sampled_from((("poisson", "geometric"), ("geometric", "poisson"),
                                  ("poisson", "poisson"), ("geometric", "geometric"))))
    samples, weights = [], []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            counts = np.zeros(part.m, dtype=int)
            counts[draw(st.integers(0, part.m - 1))] = draw(st.integers(1, 300))
        else:
            dgp = MixtureDGP(pi=draw(st.sampled_from((0.0, 0.5, 1.0))))
            data = sample_mixture(dgp, draw(st.sampled_from((5, 20, 300))),
                                  np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
            counts = np.bincount(part.bin_indices(data), minlength=part.m)
        samples.append(BinnedSample(counts=counts))
        weights.append(draw(st.sampled_from((0.5, 1.0))))
    models = [poisson_model(part) if name == "poisson" else geometric_model(part)
              for name in names]
    return samples, models, np.array(weights)


def core_outcome(samples, models, weights):
    """("value", (HI, degenerate flag, selection)) or ("raises", type) of
    the selection rows ``_select_rows`` and the row core at their fits on
    the rows ``samples``."""
    phat = np.array([s.frequencies() for s in samples])
    n = np.array([s.n for s in samples])
    try:
        fits1, fits2, hi, degenerate = _select_rows(phat, n, *models, weights)
        sel = _selection_rows(phat, models[0], fits1.x, models[1], fits2.x, weights[:, None])
    except Exception as exc:  # the type is compared, so catch every error
        return "raises", type(exc)
    for r, (sample, h) in enumerate(zip(samples, weights)):
        assert [fits.fit(r) for fits in (fits1, fits2)] == [minimize_phd(m, sample, h)
                                                             for m in models]
    return "value", (hi, degenerate, sel)


def selection_arrays(sel):
    """Every array of a row-core result, the models' rows included."""
    return [*sel.rows1, *sel.rows2, sel.gamma_sq, sel.degenerate, sel.identical]


def reasons(sel) -> list[str]:
    """The ``degenerate_reason`` that the flags of a row-core result name."""
    return ["" if not degenerate else "identical_fits" if identical else "zero_variance"
            for degenerate, identical in zip(sel.degenerate, sel.identical)]


class TestRowCore:
    """The (R, m) row core against its own R = 1 calls and ``model_select``."""

    @given(row_batches())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rows_equal_single_row_calls_and_model_select(self, drawn):
        samples, models, weights = drawn
        batch = core_outcome(samples, models, weights)
        singles = [core_outcome([s], models, weights[r:r + 1])
                   for r, s in enumerate(samples)]
        if batch[0] == "raises":
            assert ("raises", batch[1]) in singles
            return
        hi, degenerate, sel = batch[1]
        for r, (sample, h, single) in enumerate(zip(samples, weights, singles)):
            assert single[0] == "value"
            one_hi, one_degenerate, one_sel = single[1]
            np.testing.assert_array_equal(hi[r:r + 1], one_hi)
            np.testing.assert_array_equal(degenerate[r:r + 1], one_degenerate)
            for a, b in zip(selection_arrays(sel), selection_arrays(one_sel)):
                np.testing.assert_array_equal(a[r:r + 1], b)
            report = model_select(sample, models[0], models[1], float(h))
            assert report.degenerate == bool(degenerate[r])
            assert report.degenerate_reason == reasons(sel)[r]
            np.testing.assert_array_equal(report.hi, hi[r])
            assert (report.d1, report.d2) == (report.fit1.objective, report.fit2.objective)
        # dropping the degenerate rows leaves every other row as it was
        kept = np.flatnonzero(~degenerate)
        if 0 < kept.size < len(samples):
            rest = core_outcome([samples[r] for r in kept], models, weights[kept])
            np.testing.assert_array_equal(rest[1][0], hi[kept])
            for a, b in zip(selection_arrays(rest[1][2]), selection_arrays(sel)):
                np.testing.assert_array_equal(a, b[kept])

    @pytest.mark.parametrize("cuts,counts,h,pinned", [
        (None, [41, 0, 0, 0, 15, 1, 7, 2], 0.5, (0, 0)),  # Poisson rate at its lower bound
        (None, [0, 80, 0, 3, 0, 57, 3, 1], 1.0, (1, 1)),  # geometric p at its upper bound
        (WIDE_CUTS, [4, 7, 4, 16, 11, 16, 3, 24, 12, 72], 0.5, (1, 0))])
    def test_estimate_on_a_bound_gives_one_answer_by_every_route(self, cuts, counts, h, pinned):
        # the fit leaves one estimate on a bound of its box (model, end),
        # and the variance is not degenerate: model_select, lambda_star_hat
        # at the unmoved estimates and row r of a chunk all agree
        part = default_partition() if cuts is None else cuts
        models = (poisson_model(part), geometric_model(part))
        sample = BinnedSample(counts=np.array(counts))
        report = model_select(sample, *models, h)
        fits = (report.fit1, report.fit2)
        model, end = pinned
        assert fits[model].theta_hat[0] == models[model].bounds[0][end]
        assert fits[model].at_bound and not report.degenerate
        assert (report.d1, report.d2) == (report.fit1.objective, report.fit2.objective)
        gamma_sq = lambda_star_hat(sample.frequencies(), models[0], fits[0].theta_hat,
                                   models[1], fits[1].theta_hat, h)
        assert math.sqrt(gamma_sq) == report.gamma_hat
        assert math.sqrt(sample.n) * (report.d1 - report.d2) / math.sqrt(gamma_sq) == report.hi
        data = sample_mixture(MixtureDGP(pi=0.5), 40, np.random.default_rng(7))
        mixed = np.bincount(part.bin_indices(data), minlength=part.m)
        chunk = [mixed, counts, mixed[::-1]]
        phat = np.array(chunk) / np.sum(chunk, axis=1, keepdims=True)
        n, weights = np.sum(chunk, axis=1), np.array([1.0, h, 0.5])
        fits1, fits2, hi, degenerate = _select_rows(phat, n, *models, weights)
        sel = _selection_rows(phat, models[0], fits1.x, models[1], fits2.x, weights[:, None])
        assert [fits1.fit(1), fits2.fit(1)] == list(fits)
        assert (hi[1], math.sqrt(sel.gamma_sq[1]), degenerate[1]) == (report.hi,
                                                                       report.gamma_hat, False)

    def test_batches_cover_both_degenerate_reasons(self):
        part = default_partition()
        pois, geom = poisson_model(part), geometric_model(part)
        one_cell = BinnedSample(counts=np.eye(part.m, dtype=int)[3] * 20)
        data = sample_mixture(MixtureDGP(pi=0.5), 300, np.random.default_rng(5))
        mixed = BinnedSample(counts=np.bincount(part.bin_indices(data), minlength=part.m))
        weights = np.array([0.5, 1.0, 0.5])
        for samples, models, expected in (
                ([mixed, one_cell, mixed], [pois, geom], ["", "zero_variance", ""]),
                ([mixed, one_cell], [pois, pois], ["identical_fits", "identical_fits"])):
            _, (_, degenerate, sel) = core_outcome(samples, models, weights[:len(samples)])
            assert sel.degenerate.dtype == bool and sel.identical.dtype == bool
            np.testing.assert_array_equal(degenerate, sel.degenerate)
            assert reasons(sel) == expected
            assert [model_select(s, *models, float(h)).degenerate_reason
                    for s, h in zip(samples, weights)] == expected

    def test_one_cell_call_per_family(self, monkeypatch):
        part = default_partition()
        pois, geom = poisson_model(part), geometric_model(part)
        data = sample_mixture(MixtureDGP(pi=0.5), 300, np.random.default_rng(5))
        phat = np.tile(np.bincount(part.bin_indices(data), minlength=part.m) / 300.0, (4, 1))
        calls = []
        plain_cell_fn = DiscreteModel.cell_fn

        def cell_fn(model, theta):
            calls.append(("cell_fn", theta.shape[0]))
            return plain_cell_fn(model, theta)

        def counted_dkernel(dkernel):
            def call(theta, out):
                calls.append(("dkernel", theta.shape[0]))
                dkernel(theta, out)
            return call

        monkeypatch.setattr(DiscreteModel, "cell_fn", cell_fn)
        pois, geom = (dataclasses.replace(model, dkernel=counted_dkernel(model.dkernel))
                      for model in (pois, geom))
        _selection_rows(phat, pois, np.full(4, 4.0), geom, np.full(4, 0.2), 0.5)
        # the cells and the derivatives of the 4 estimates, one call each
        assert calls == [("cell_fn", 4), ("dkernel", 4)] * 2
