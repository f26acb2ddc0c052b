import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phdsel import (DegenerateGradient, InvalidInput, InvalidParameter,
                    grad_phd_first, grad_phd_second, hellinger,
                    penalized_hellinger)
from phdsel.divergence import (MAX_PENALTY_WEIGHT, _grad_first, _grad_second,
                               _kl_modified_rows, _phd_rows)

HD_EXAMPLE = 2.0 * ((1.0 - math.sqrt(0.5)) ** 2 + 0.5)          # (1,0) vs (.5,.5)
PHD_HALF_EXAMPLE = 2.0 * ((1.0 - math.sqrt(0.5)) ** 2 + 0.25)   # same pair, h=1/2


def simplex(draw_weights):
    w = np.asarray(draw_weights, dtype=float)
    return w / w.sum()


simplex_strategy = st.lists(
    st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=10
).map(simplex)


def random_simplex_pair(rng, m, zeros=False):
    p = rng.dirichlet(np.ones(m))
    q = rng.dirichlet(np.ones(m))
    if zeros and m > 2:
        kill = rng.integers(0, m)
        p[kill] = 0.0
        p /= p.sum()
    return p, q


class TestHellinger:
    def test_identity_is_zero(self):
        assert hellinger([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_direct_arithmetic_example(self):
        assert hellinger([1.0, 0.0], [0.5, 0.5]) == pytest.approx(HD_EXAMPLE, rel=1e-15)
        assert hellinger([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.1715729, abs=5e-8)

    def test_disjoint_supports_reach_maximum(self):
        assert hellinger([1.0, 0.0], [0.0, 1.0]) == pytest.approx(4.0, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            hellinger([1.0, 0.0], [0.5, 0.25, 0.25])

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p, q = random_simplex_pair(rng, 6)
            d = hellinger(p, q)
            assert d == pytest.approx(hellinger(q, p), abs=1e-15)
            assert 0.0 <= d <= 4.0


class TestPenalizedHellinger:
    def test_h_one_recovers_hellinger(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            p, q = random_simplex_pair(rng, 6, zeros=True)
            assert penalized_hellinger(p, q, 1.0) == pytest.approx(
                hellinger(p, q), abs=1e-15)

    def test_direct_arithmetic_example(self):
        d = penalized_hellinger([1.0, 0.0], [0.5, 0.5], 0.5)
        assert d == pytest.approx(PHD_HALF_EXAMPLE, rel=1e-15)
        assert d == pytest.approx(0.6715729, abs=5e-8)

    def test_identity_with_occupied_cells_is_zero(self):
        p = [0.2, 0.3, 0.5]
        assert penalized_hellinger(p, p, 0.5) == 0.0

    def test_rejects_nonpositive_h(self):
        with pytest.raises(InvalidParameter):
            penalized_hellinger([0.5, 0.5], [0.5, 0.5], 0.0)
        with pytest.raises(InvalidParameter):
            penalized_hellinger([0.5, 0.5], [0.5, 0.5], -1.0)

    def test_weight_rule_and_its_cap(self):
        # h is a real number, not a bool, in (0, MAX_PENALTY_WEIGHT]
        assert MAX_PENALTY_WEIGHT == 1e100
        assert penalized_hellinger([1.0, 0.0], [0.5, 0.5], MAX_PENALTY_WEIGHT) > 0.0
        for bad in (1e300, 10**101, 1.0000000000000002e100, math.inf, math.nan, True):
            with pytest.raises(InvalidParameter, match=re.escape(f"got {bad!r}")):
                penalized_hellinger([1.0, 0.0], [0.5, 0.5], bad)

    @given(simplex_strategy, st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, p, h):
        q = np.roll(p, 1)
        assert penalized_hellinger(p, q, h) >= 0.0

    @pytest.mark.parametrize("m", [3, 8, 10, 17])
    def test_batched_rows_equal_single_evaluations(self, m):
        # the fit evaluates its start grid as one (B, m) batch
        rng = np.random.default_rng(m)
        p, _ = random_simplex_pair(rng, m, zeros=True)
        Q = rng.dirichlet(np.ones(m), size=32)
        rows = _phd_rows(np.sqrt(p), p > 0.0, Q, 0.5)
        assert np.array_equal(rows, [penalized_hellinger(p, q, 0.5) for q in Q])

    def test_zero_iff_agreement_and_no_missed_mass(self):
        # agreement on occupied cells but model mass on the empty cell
        d = penalized_hellinger([0.5, 0.5, 0.0], [0.4, 0.4, 0.2], 0.5)
        assert d > 0.0
        # agreement on occupied cells and no model mass outside them
        d = penalized_hellinger([0.5, 0.5, 0.0], [0.5, 0.5, 0.0], 0.5)
        assert d == 0.0


def kl_modified(q, p) -> float:
    """Modified KL divergence of the model vector ``q`` from the
    frequencies ``p``, as the one-row call that ``mle_binned`` makes."""
    p = np.asarray(p, dtype=float)
    return float(_kl_modified_rows(p, p > 0.0, np.asarray(q, dtype=float)[None, :])[0])


class TestKlModified:
    def test_identity_is_zero(self):
        assert kl_modified([0.25, 0.75], [0.25, 0.75]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_model_cell_is_infinite(self):
        assert kl_modified([0.0, 1.0], [0.5, 0.5]) == math.inf

    def test_brute_force_two_terms(self):
        expected = (0.5 * math.log(0.5 / 0.25) + 0.25 - 0.5
                    + 0.5 * math.log(0.5 / 0.75) + 0.75 - 0.5)
        assert kl_modified([0.25, 0.75], [0.5, 0.5]) == pytest.approx(expected, rel=1e-14)

    def test_agrees_with_generic_phi_divergence(self):
        # the phi-divergence with phi(x) = -log x + x - 1, one cell at a time:
        # p_i phi(q_i / p_i) on occupied cells, the limit slope 1 times q_i
        # on empty ones
        def oracle(q, p):
            total = 0.0
            for pi, qi in zip(p, q):
                if pi > 0.0:
                    total += pi * (-math.log(qi / pi) + qi / pi - 1.0)
                else:
                    total += qi
            return total

        rng = np.random.default_rng(23)
        for i in range(200):
            p, q = random_simplex_pair(rng, 5, zeros=i % 2 == 1)
            assert kl_modified(q, p) == pytest.approx(oracle(q, p), rel=1e-12)


def fd_gradient(func, x, step=1e-6):
    """Central finite differences, coordinates treated as free variables."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (func(up) - func(dn)) / (2.0 * step)
    return g


def phd_free(p, q, h):
    """Penalized distance without simplex validation, for differencing."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    occ = p > 0
    return 2.0 * (np.sum((np.sqrt(p[occ]) - np.sqrt(q[occ])) ** 2)
                  + h * np.sum(q[~occ]))


class TestGradients:
    def test_zero_at_equality(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(grad_phd_first(p, p, 0.5), np.zeros(3))
        np.testing.assert_array_equal(grad_phd_second(p, p, 0.5), np.zeros(3))

    def test_first_gradient_example(self):
        K = grad_phd_first([0.5, 0.5], [0.25, 0.75], 0.5)
        expected = [2.0 * (1.0 - math.sqrt(0.5)), 2.0 * (1.0 - math.sqrt(1.5))]
        np.testing.assert_allclose(K, expected, rtol=1e-15)

    def test_empty_cell_conventions(self):
        K = grad_phd_first([0.5, 0.5, 0.0], [0.25, 0.55, 0.2], 0.5)
        assert K[2] == 0.0
        Q = grad_phd_second([0.5, 0.5, 0.0], [0.25, 0.55, 0.2], 0.5)
        assert Q[2] == pytest.approx(1.0, rel=1e-15)  # 2h with h = 1/2

    def test_degenerate_gradient_raises_without_floor(self):
        with pytest.raises(DegenerateGradient):
            grad_phd_second([0.5, 0.5], [0.0, 1.0], 0.5)
        with pytest.raises(DegenerateGradient):
            grad_phd_second([0.5, 0.0, 0.5], [0.0, 0.5, 0.5], 1.0)
        # a zero model probability on an empty cell is no degeneracy
        Q = grad_phd_second([0.5, 0.5, 0.0], [0.5, 0.5, 0.0], 0.5)
        np.testing.assert_array_equal(Q, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.25])
    def test_first_gradient_matches_finite_differences(self, h):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6)) * 0.9 + 0.1 / 6  # interior
            q = rng.dirichlet(np.ones(6)) * 0.9 + 0.1 / 6
            K = grad_phd_first(p / p.sum(), q / q.sum(), h)
            fd = fd_gradient(lambda v: phd_free(v, q / q.sum(), h), p / p.sum())
            np.testing.assert_allclose(K, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_second_gradient_matches_finite_differences(self, h):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6)) * 0.9 + 0.1 / 6
            q = rng.dirichlet(np.ones(6)) * 0.9 + 0.1 / 6
            Q = grad_phd_second(p / p.sum(), q / q.sum(), h)
            fd = fd_gradient(lambda v: phd_free(p / p.sum(), v, h), q / q.sum())
            np.testing.assert_allclose(Q, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("column", [False, True])
    def test_row_gradients_equal_a_masked_reference(self, column):
        # the where-form against assignment through the occupied mask, on
        # (R, m) rows with empty cells and a float or (R, 1) column of h
        rng = np.random.default_rng(37)
        P = rng.dirichlet(np.ones(7), size=40) * (rng.random((40, 7)) < 0.6)
        P[0] = 0.0
        Q = rng.dirichlet(np.ones(7), size=40)
        occupied = P > 0.0
        h = rng.uniform(0.1, 2.0, size=(40, 1)) if column else 0.37
        first = np.zeros_like(P)
        first[occupied] = 2.0 * (1.0 - np.sqrt(Q[occupied] / P[occupied]))
        second = np.full_like(P, 2.0 * h)
        second[occupied] = 2.0 * (1.0 - np.sqrt(P[occupied] / Q[occupied]))
        assert occupied.any() and not occupied.all()
        np.testing.assert_array_equal(_grad_first(P, occupied, Q), first)
        np.testing.assert_array_equal(_grad_second(P, occupied, Q, h), second)

    def test_second_gradient_fd_on_empty_cells(self):
        # the penalty term h * q_i is linear, so the 2h convention is exact
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.3, 0.5, 0.2])
        h = 0.5
        Q = grad_phd_second(p, q, h)
        fd = fd_gradient(lambda v: phd_free(p, v, h), q)
        np.testing.assert_allclose(Q, fd, rtol=1e-6, atol=1e-9)
