import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import stats

from phdsel import (BoundaryParameter, CellPartition, InvalidInput, InvalidParameter,
                    MixtureDGP, default_partition, geometric_model, jacobian,
                    mixture_cell_probs, model_by_name, omega_sq, parse_cuts, poisson_model,
                    sample_mixture)
from phdsel.models import GEOMETRIC_BOUNDS, POISSON_BOUNDS, _mixture_rows, _residual_last

KERNEL_PARTITIONS = {
    "default": default_partition(),
    "wide": parse_cuts("1,2,5,10,20,50,100,1000,10000"),
    "long_tail": parse_cuts("3,6,9,12,15,18,100000"),
}
HUGE_CUT = parse_cuts("1,2,3,1e12")


def brute_force_cells(pmf_values: np.ndarray, support: np.ndarray,
                      part: CellPartition) -> np.ndarray:
    """Independent oracle: sum the pmf over a huge support per cell."""
    idx = part.bin_indices(support)
    out = np.zeros(part.m)
    np.add.at(out, idx, pmf_values)
    return out


def integer_edges(part: CellPartition, support_start: int) -> list[int]:
    return [max(math.ceil(c), support_start) for c in part.cuts[:-1]]


def summed_poisson_cells(lam: float, part: CellPartition) -> np.ndarray:
    """Poisson cells by summing the pmf over every integer below the largest
    cut: pmf(0) = exp(-lam), the cumulative product of lam / x, a cumulative
    sum differenced at the cell edges, and the last cell as the residual.
    The kernel truncates this sum and must reproduce it bit for bit."""
    edges = integer_edges(part, 0)
    top = edges[-1]
    xs = np.arange(0, top)
    base = np.exp(-lam)
    ratios = np.cumprod(lam / np.arange(1.0, xs[-1] + 1.0))
    pmf = np.concatenate(([base], base * ratios))[xs]
    csum = np.concatenate(([0.0], np.cumsum(pmf)))
    probs = np.empty(part.m)
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        probs[i] = csum[b] - csum[a]
    probs[-1] = max(1.0 - probs[:-1].sum(), 0.0)
    return probs


def batch_truncated_poisson_cells(lam: np.ndarray, part: CellPartition) -> np.ndarray:
    """Poisson cells of the (B, 1) rates ``lam``, the pmf sum stopped at
    T = min(top edge, floor(lam_max + 12 sqrt(lam_max) + 40)) with lam_max
    the batch's largest rate, every term built per call."""
    edges = np.array(integer_edges(part, 0), dtype=float)
    lam_max = float(lam.max())
    n = int(min(edges[-1], math.floor(lam_max + 12.0 * math.sqrt(lam_max) + 40.0)))
    csum = np.zeros((lam.shape[0], n + 1))
    base = np.exp(-lam)
    csum[:, 1:2] = base
    csum[:, 2:] = base * np.cumprod(lam / np.arange(1.0, n), axis=1)
    csum[:, 1:] = np.cumsum(csum[:, 1:], axis=1)
    at = np.take(csum, np.minimum(edges, n).astype(np.intp), axis=1)
    interior = at[:, 1:] - at[:, :-1]
    last = np.maximum(1.0 - interior.sum(axis=1), 0.0)
    return np.hstack([interior, last[:, None]])


def decimal_geometric_cells(p: float, part: CellPartition) -> np.ndarray:
    """Geometric cells on {1, 2, ...} from the survival function (1-p)^(e-1)
    in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        q = 1 - Decimal(float(p))
        surv = [q ** (e - 1) for e in integer_edges(part, 1)]
        cells = [a - b for a, b in zip(surv, surv[1:])] + [surv[-1]]
        return np.array([float(c) for c in cells])


class TestPoissonCells:
    def test_first_cell_is_exp_minus_lambda(self):
        p = poisson_model().cell_prob(4.0)
        assert p[0] == pytest.approx(math.exp(-4.0), rel=1e-14)

    def test_last_cell_is_upper_tail(self):
        # oracle: complement of the cdf computed by explicit pmf summation
        p = poisson_model().cell_prob(4.0)
        tail = 1.0 - sum(stats.poisson.pmf(x, 4.0) for x in range(7))
        assert p[-1] == pytest.approx(tail, rel=1e-12)
        assert p[-1] == pytest.approx(0.1106740, abs=5e-8)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 4.0, 17.5, 49.0])
    def test_sums_to_one(self, lam):
        p = poisson_model().cell_prob(lam)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0)

    @pytest.mark.parametrize("lam", [0.5, 4.0, 12.0])
    @pytest.mark.parametrize("cuts", [
        (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, math.inf),
        (0.0, 2.5, 7.0, 11.0, math.inf),
    ])
    def test_matches_brute_force_summation(self, lam, cuts):
        part = CellPartition(cuts=cuts)
        support = np.arange(0, 10**6 + 1)
        pmf = stats.poisson.pmf(support, lam)
        oracle = brute_force_cells(pmf, support, part)
        oracle[-1] += max(1.0 - pmf.sum(), 0.0)  # mass beyond the enumeration
        np.testing.assert_allclose(poisson_model(part).cell_prob(lam), oracle, atol=1e-12)


class TestGeometricCells:
    def test_zero_cell_has_no_mass(self):
        q = geometric_model().cell_prob(0.2)
        assert q[0] == 0.0

    def test_single_support_point_cell(self):
        q = geometric_model().cell_prob(0.2)
        assert q[1] == pytest.approx(0.2, rel=1e-15)

    def test_tail_cell(self):
        q = geometric_model().cell_prob(0.2)
        assert q[-1] == pytest.approx(0.8**6, rel=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.95])
    def test_matches_brute_force_summation(self, p):
        part = default_partition()
        xs = np.arange(1, 10**6 + 1)
        pmf = stats.geom.pmf(xs, p)
        oracle = brute_force_cells(pmf, xs, part)
        oracle[-1] += max(1.0 - pmf.sum(), 0.0)
        np.testing.assert_allclose(geometric_model(part).cell_prob(p), oracle, atol=1e-12)


class TestModels:
    def test_registry(self):
        assert model_by_name("poisson").name == "poisson"
        assert model_by_name("geometric").name == "geometric"
        with pytest.raises(InvalidInput):
            model_by_name("weibull")

    def test_dimension_condition(self):
        # k must stay below m - 1
        tiny = CellPartition(cuts=(0.0, 1.0, math.inf))
        with pytest.raises(InvalidInput):
            poisson_model(tiny)

    def test_cell_prob_validates_theta_shape(self):
        model = poisson_model()
        with pytest.raises(InvalidInput):
            model.cell_prob([1.0, 2.0])

    @pytest.mark.parametrize("method", ["cell_prob", "theta_array"])
    @pytest.mark.parametrize("theta", ["3", True, 10**400, None, 3 + 0j, [[1.0], 2.0]],
                             ids=["string", "bool", "huge int", "None", "complex", "ragged"])
    def test_theta_that_is_not_a_number_is_refused(self, method, theta):
        for model in (poisson_model(), geometric_model()):
            with pytest.raises(InvalidInput, match="theta must be integers or floats"):
                getattr(model, method)(theta)

    @pytest.mark.parametrize("theta_grid", [np.linspace(0.2, 45.0, 30)])
    def test_poisson_model_outputs_are_simplex_points(self, theta_grid):
        model = poisson_model()
        for t in theta_grid:
            p = model.cell_prob([t])
            assert abs(p.sum() - 1.0) <= 1e-12 and np.all(p >= 0.0)


class TestCellKernels:
    @pytest.mark.parametrize("name", sorted(KERNEL_PARTITIONS))
    def test_poisson_kernel_equals_pmf_summation(self, name):
        part = KERNEL_PARTITIONS[name]
        model = poisson_model(part)
        for lam in np.linspace(*POISSON_BOUNDS, 3001):
            assert np.array_equal(model.cell_prob([lam]),
                                  summed_poisson_cells(float(lam), part)), lam

    @pytest.mark.parametrize("name", sorted(KERNEL_PARTITIONS))
    def test_geometric_kernel_matches_decimal_closed_form(self, name):
        part = KERNEL_PARTITIONS[name]
        model = geometric_model(part)
        lo, hi = GEOMETRIC_BOUNDS
        ps = np.concatenate([np.linspace(lo, hi, 201), np.geomspace(lo, 1e-2, 25),
                             1.0 - np.geomspace(1.0 - hi, 1e-2, 25)])
        worst = max(np.abs(model.cell_prob([p]) - decimal_geometric_cells(p, part)).max()
                    for p in ps)
        assert worst <= 1e-15

    @pytest.mark.parametrize("build,grid", [
        (poisson_model, np.linspace(*POISSON_BOUNDS, 37)),
        (geometric_model, np.linspace(*GEOMETRIC_BOUNDS, 37)),
    ])
    @pytest.mark.parametrize("name", sorted(KERNEL_PARTITIONS))
    def test_batch_equals_stacked_batches_of_one(self, build, grid, name):
        model = build(KERNEL_PARTITIONS[name])
        batch = model.cell_fn(grid[:, None])
        stacked = np.vstack([model.cell_fn(np.array([[t]])) for t in grid])
        assert batch.shape == (grid.size, model.partition.m)
        assert np.array_equal(batch, stacked)

    @pytest.mark.parametrize("name", ["default", "wide"])
    def test_shared_workspace_rows_equal_cell_fn(self, name):
        # as in a fit: both kernels fill their own rows of one workspace, in
        # either order, and the residual last cell is completed once for all
        part = KERNEL_PARTITIONS[name]
        pois, geom = poisson_model(part), geometric_model(part)
        rates = np.concatenate([np.linspace(*POISSON_BOUNDS, 37), [40.5, 4.0]])[:, None]
        probs = np.linspace(*GEOMETRIC_BOUNDS, 41)[::-1, None]
        for (model1, theta1), (model2, theta2) in (((pois, rates), (geom, probs)),
                                                   ((geom, probs), (pois, rates))):
            for rows in (slice(None), slice(0, 1), slice(3, 10)):
                t1, t2 = theta1[rows], theta2[rows]
                space = np.full((t1.shape[0] + t2.shape[0], part.m), np.nan)
                model1.kernel(t1, space[:t1.shape[0], :-1])
                model2.kernel(t2, space[t1.shape[0]:, :-1])
                _residual_last(space[:, :-1], space[:, -1])
                expected = np.vstack([model1.cell_fn(t1), model2.cell_fn(t2)])
                assert space.tobytes() == expected.tobytes(), (model1.name, rows)

    @pytest.mark.parametrize("build,name,good,theta", [(poisson_model, "wide", 4.0, 800.0),
                                                       (geometric_model, "default", 0.2, 1.0),
                                                       (geometric_model, "default", 0.2, 1.5)])
    def test_cell_prob_outside_the_domain_names_the_parameter(self, build, name, good, theta):
        # under the suite's error::RuntimeWarning filter: the kernel's numpy
        # warnings stay inside cell_prob, which names the model and theta
        model = build(KERNEL_PARTITIONS[name])
        named = re.escape(f"{model.name} at theta=[{theta!r}]")
        with pytest.raises(InvalidParameter, match=named):
            model.cell_prob([theta])
        with pytest.raises(InvalidParameter, match=re.escape(f"[[{good!r}], [{theta!r}]]")):
            model.cell_prob([[good], [theta]])
        # the limit laws refuse a parameter outside the box before any cells
        with pytest.raises(BoundaryParameter):
            jacobian(model, [theta])
        with pytest.raises(BoundaryParameter):
            omega_sq(np.full(model.partition.m, 1.0 / model.partition.m), model, [theta], 0.5)

    @pytest.mark.parametrize("cuts", ["1,2,3,4,5,6,7", "1,2,5,10,20,40", "1,2,5,10,20,41",
                                      "1,2,5,10,20,50,100,1000,10000"])
    def test_poisson_kernel_equals_batch_truncated_sum(self, cuts):
        # on top edges up to 40 the kernel builds its terms once and never
        # reads the batch's largest rate; above 40 it truncates by it
        part = parse_cuts(cuts)
        kernel = poisson_model(part).cell_fn
        rates = np.concatenate([np.linspace(*POISSON_BOUNDS, 301),
                                np.geomspace(POISSON_BOUNDS[0], 1.0, 40)])[:, None]
        batches = [rates[i:i + 1] for i in range(len(rates))]
        batches += [rates, rates[::7], rates[-40:], rates[:60], np.full((3, 1), 40.5)]
        for lam in batches:
            got = kernel(lam)
            assert got.tobytes() == batch_truncated_poisson_cells(lam, part).tobytes(), lam.max()

    @pytest.mark.parametrize("lam", [*POISSON_BOUNDS, 0.3, 4.0, 17.5])
    def test_poisson_huge_cut_matches_scipy_cdf(self, lam):
        q = poisson_model(HUGE_CUT).cell_prob([lam])
        edges = np.array(integer_edges(HUGE_CUT, 0), dtype=float)
        cdf = stats.poisson.cdf(edges - 1.0, lam)
        oracle = np.append(np.diff(cdf), stats.poisson.sf(edges[-1] - 1.0, lam))
        assert np.all(np.isfinite(q)) and abs(q.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(q, oracle, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("p", [*GEOMETRIC_BOUNDS, 0.2, 0.5])
    def test_geometric_huge_cut_matches_decimal_closed_form(self, p):
        q = geometric_model(HUGE_CUT).cell_prob([p])
        assert np.all(np.isfinite(q)) and abs(q.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(q, decimal_geometric_cells(p, HUGE_CUT),
                                   rtol=0.0, atol=1e-15)


class TestMixtureSampling:
    def test_pure_poisson_mean(self):
        rng = np.random.default_rng(101)
        draws = sample_mixture(MixtureDGP(pi=1.0), 10**5, rng)
        se = math.sqrt(4.0 / 10**5)
        assert abs(draws.mean() - 4.0) < 3 * se

    def test_pure_geometric_mean(self):
        rng = np.random.default_rng(102)
        draws = sample_mixture(MixtureDGP(pi=0.0), 10**5, rng)
        se = math.sqrt((0.8 / 0.04) / 10**5)
        assert abs(draws.mean() - 5.0) < 3 * se

    def test_deterministic_given_seed(self):
        a = sample_mixture(MixtureDGP(pi=0.5), 1000, np.random.default_rng(7))
        b = sample_mixture(MixtureDGP(pi=0.5), 1000, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("pi,cells", [
        (1.0, lambda part: poisson_model(part).cell_prob(4.0)),
        (0.0, lambda part: geometric_model(part).cell_prob(0.2)),
    ])
    def test_pure_mixture_matches_component_distribution(self, pi, cells):
        # chi-square against the exact cell probabilities of the component
        part = default_partition()
        rng = np.random.default_rng(55)
        n = 20_000
        draws = sample_mixture(MixtureDGP(pi=pi), n, rng)
        counts = np.bincount(part.bin_indices(draws), minlength=part.m)
        expected = n * cells(part)
        keep = expected > 0
        stat = np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep])
        assert counts[~keep].sum() == 0
        assert stat < stats.chi2.ppf(0.999, keep.sum() - 1)

    def test_rejects_bad_dgp(self):
        with pytest.raises(InvalidParameter):
            MixtureDGP(pi=1.5)
        with pytest.raises(InvalidInput):
            sample_mixture(MixtureDGP(pi=0.5), 0, np.random.default_rng(1))


class TestMixtureCells:
    def test_convex_combination(self):
        part = default_partition()
        mix = mixture_cell_probs(0.25, part)
        expected = (0.25 * poisson_model(part).cell_prob(4.0)
                    + 0.75 * geometric_model(part).cell_prob(0.2))
        np.testing.assert_allclose(mix, expected, rtol=1e-15)

    @pytest.mark.parametrize("cuts", ["1,2,3,4,5,6,7", "1,2,5,10,20,50,100,1000,10000"])
    def test_rows_are_the_mixtures_of_each_weight(self, cuts):
        part = parse_cuts(cuts)
        pis = np.concatenate([np.linspace(0.0, 1.0, 33), [0.1, 1 / 3, 0.7]])
        first, second = poisson_model(part).cell_prob(4.0), geometric_model(part).cell_prob(0.2)
        rows = _mixture_rows(pis, part)
        assert rows.shape == (pis.size, part.m)
        for pi, row in zip(pis.tolist(), rows):
            # bit for bit: the weighted sum of one weight's component cells
            assert row.tolist() == (pi * first + (1.0 - pi) * second).tolist()
            assert row.tolist() == mixture_cell_probs(pi, part).tolist()

    # the kernel still evaluates rates far above the study's on every cut set
    @pytest.mark.parametrize("cuts", ["1,2,3,4,5,6,7", "1,2,5,10,20,50,100,1000,10000"])
    def test_largest_poisson_rate_is_evaluated(self, cuts):
        cells = poisson_model(parse_cuts(cuts)).cell_prob([700.0])
        assert np.all(np.isfinite(cells)) and np.all(cells >= 0.0)
        assert abs(cells.sum() - 1.0) <= 1e-12

    def test_rejects_bad_mixing_weight(self):
        for bad in (-0.1, 1.5, math.nan, True):
            with pytest.raises(InvalidParameter, match=f"got {bad!r}"):
                mixture_cell_probs(bad, default_partition())
