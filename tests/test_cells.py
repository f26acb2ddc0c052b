import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phdsel import (BinnedSample, CellPartition, InvalidInput, as_prob_vector,
                    default_partition, empirical_frequencies, parse_cuts)


def not_numbers(strings, bools, one):
    """The cases that no numeric-array input accepts, each a pytest param:
    ``strings`` and ``bools`` as given, and ``one`` with its first entry
    replaced by an integer beyond 64 bits, by None, by a complex number and
    by a one-entry list, which makes the sequence ragged."""
    cases = {"strings": strings, "bools": bools, "huge int": [10**400, *one[1:]],
             "None": [None, *one[1:]], "complex": [complex(one[0]), *one[1:]],
             "ragged": [[one[0]], *one[1:]]}
    return [pytest.param(value, id=name) for name, value in cases.items()]


class TestCellPartition:
    def test_default_partition_shape(self):
        part = default_partition()
        assert part.m == 8
        assert part.cuts[0] == 0.0
        assert part.cuts[-1] == math.inf
        assert part.cuts[1:-1] == tuple(float(i) for i in range(1, 8))

    def test_half_open_cells(self):
        part = default_partition()
        # value just below a cut stays in the lower cell, the cut itself moves up
        assert part.bin_indices([6.999]) == [6]
        assert part.bin_indices([7.0]) == [7]
        assert part.bin_indices([0.0]) == [0]
        assert part.bin_indices([123.0]) == [7]

    @pytest.mark.parametrize("cuts", [
        (0.0, 1.0),                       # single cell
        (1.0, 2.0, math.inf),             # first cut not 0
        (0.0, 1.0, 7.0),                  # last cut finite
        (0.0, 2.0, 2.0, math.inf),        # not strictly increasing
        (0.0, 3.0, 1.0, math.inf),        # decreasing
        (0.0, 10**400, math.inf),         # an integer beyond a double
    ])
    def test_invalid_cuts_rejected(self, cuts):
        with pytest.raises(InvalidInput):
            CellPartition(cuts=cuts)

    @pytest.mark.parametrize("cuts", [
        (0.0, "1", "2", math.inf),        # numeric strings, which float() reads
        (0.0, 1.0, "inf"),
        (0.0, True, 2.0, math.inf),       # bools, which float() reads as 0 and 1
        (0.0, np.bool_(True), 2.0, math.inf),
    ])
    def test_string_or_bool_cuts_rejected(self, cuts):
        with pytest.raises(InvalidInput, match="cuts must be numbers"):
            CellPartition(cuts=cuts)

    def test_numpy_numbers_are_cuts(self):
        part = CellPartition(cuts=(0.0, np.float32(1.5), np.float64(2.0), np.int64(3), math.inf))
        assert part.cuts == (0.0, 1.5, 2.0, 3.0, math.inf)
        assert all(type(c) is float for c in part.cuts)

    def test_parse_cuts(self):
        part = parse_cuts("1,2,3")
        assert part.cuts == (0.0, 1.0, 2.0, 3.0, math.inf)
        assert parse_cuts("1,2,3") is part
        with pytest.raises(InvalidInput):
            parse_cuts("")
        with pytest.raises(InvalidInput):
            parse_cuts("a,b")
        with pytest.raises(InvalidInput):
            parse_cuts("1,nan,3")
        for text, token in (("1e400", "1e400"), ("5,inf", "inf")):
            with pytest.raises(InvalidInput, match=f"cut '{token}' is not finite"):
                parse_cuts(text)

    @pytest.mark.parametrize("value", [5, None, [1, 2], (1.0, 2.0), b"1,2", 1.5],
                             ids=["int", "None", "list", "tuple", "bytes", "float"])
    def test_parse_cuts_refuses_a_non_string(self, value):
        with pytest.raises(InvalidInput, match="cuts must be a comma-separated string"):
            parse_cuts(value)


BINNING_PARTITIONS = (default_partition(), parse_cuts("1,2,5,10,20,50,100,1000,10000"),
                      parse_cuts("2,4,6,8,10,15"))


def samples_on(part):
    """One to six samples of 1 to 30 observations on the cells of ``part``:
    values on a cut, fractional values inside the cuts, values at or beyond
    the last cut and whole numbers, then a one-value sample at the last cut."""
    top = part.cuts[-2]
    value = st.one_of(st.sampled_from(part.cuts[:-1]), st.floats(0.0, top),
                      st.floats(top, 1e300), st.integers(0, int(2 * top)))
    sample = st.lists(value, min_size=1, max_size=30).map(lambda s: np.array(s, dtype=float))
    return st.lists(sample, min_size=1, max_size=6).map(lambda s: s + [np.array([top])])


class TestBinCounts:
    @pytest.mark.parametrize("part", BINNING_PARTITIONS, ids=["default", "wide", "even"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rows_equal_each_sample_binned_alone(self, part, data):
        # one search and one count for R samples of different lengths: row r
        # is sample r's own count, and empirical_frequencies' R = 1 call
        samples = data.draw(samples_on(part))
        counts = part.bin_counts(samples)
        assert counts.shape == (len(samples), part.m)
        for row, s in zip(counts, samples, strict=True):
            alone = np.bincount(part.bin_indices(s), minlength=part.m)
            sample, phat = empirical_frequencies(s, part)
            assert row.tolist() == alone.tolist() == sample.counts.tolist()
            assert phat.tobytes() == (row / s.size).tobytes()

    def test_observations_on_and_beyond_the_cuts(self):
        part = parse_cuts("2,4,6,8,10,15")
        samples = [np.array([0.0, 2.0, 1.999, 15.0, 1e300]), np.array([4.0]), np.array([14.5])]
        assert part.bin_counts(samples).tolist() == [[2, 1, 0, 0, 0, 0, 2],
                                                     [0, 0, 1, 0, 0, 0, 0],
                                                     [0, 0, 0, 0, 0, 1, 0]]


class TestProbVector:
    def test_accepts_simplex_point(self):
        p = as_prob_vector([0.25, 0.75])
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(InvalidInput):
            as_prob_vector([0.5, -0.5, 1.0])
        with pytest.raises(InvalidInput):
            as_prob_vector([0.5, 0.6])
        with pytest.raises(InvalidInput):
            as_prob_vector([0.5, math.nan])


    @pytest.mark.parametrize("p", not_numbers(["0.5", "0.5"], [True, False], [0.5, 0.5]))
    def test_rejects_entries_that_are_not_numbers(self, p):
        with pytest.raises(InvalidInput, match="probability vector must be integers or floats"):
            as_prob_vector(p)


class TestEmpiricalFrequencies:
    def test_direct_counting(self):
        part = CellPartition(cuts=(0.0, 1.0, 2.0, 3.0, math.inf))
        sample, phat = empirical_frequencies([0, 0, 1, 3], part)
        assert sample.counts.tolist() == [2, 1, 0, 1]
        assert sample.n == 4
        np.testing.assert_allclose(phat, [0.5, 0.25, 0.0, 0.25])

    def test_single_cell_gives_simplex_vertex(self):
        part = default_partition()
        _, phat = empirical_frequencies([2.0, 2.5, 2.1], part)
        expected = np.zeros(8)
        expected[2] = 1.0
        np.testing.assert_array_equal(phat, expected)

    def test_permutation_invariance(self):
        part = default_partition()
        rng = np.random.default_rng(3)
        data = rng.poisson(4.0, 500)
        _, phat = empirical_frequencies(data, part)
        _, phat_shuffled = empirical_frequencies(rng.permutation(data), part)
        np.testing.assert_array_equal(phat, phat_shuffled)

    def test_rejects_bad_data(self):
        part = default_partition()
        with pytest.raises(InvalidInput):
            empirical_frequencies([], part)
        with pytest.raises(InvalidInput):
            empirical_frequencies([1.0, -0.5], part)

    @pytest.mark.parametrize("data", not_numbers(["1", "2", "3"], [True, False, True], [1, 2, 3]))
    def test_rejects_observations_that_are_not_numbers(self, data):
        with pytest.raises(InvalidInput, match="data must be integers or floats"):
            empirical_frequencies(data, default_partition())

    def test_poisson_first_cell_frequency(self):
        # oracle: exact pmf of zero counts, e^-4; Monte Carlo within 3 SE
        part = default_partition()
        rng = np.random.default_rng(12345)
        n = 10_000
        _, phat = empirical_frequencies(rng.poisson(4.0, n), part)
        p0 = math.exp(-4.0)
        se = math.sqrt(p0 * (1.0 - p0) / n)
        assert abs(phat[0] - p0) < 3 * se


class TestBinnedSample:
    def test_validates_total(self):
        with pytest.raises(TypeError):  # n is the counts' total, not an input
            BinnedSample(counts=np.array([1, 2]), n=5)
        with pytest.raises(InvalidInput):
            BinnedSample(counts=np.array([0, 0]))
        with pytest.raises(InvalidInput):
            BinnedSample(counts=np.array([-1, 3]))

    def test_rejects_non_finite_and_fractional_counts(self):
        # the int64 cast would truncate 2.7 to 2, and fail on NaN, inf and 1e300
        for bad in ([2.7, 1.2, 0.0], [math.nan, 3.0], [math.inf, 3.0], [-math.inf, 3.0],
                    [1e300, 1.0]):
            with pytest.raises(InvalidInput, match="whole numbers"):
                BinnedSample(counts=np.array(bad))
        s = BinnedSample(counts=[3.0, 1.0, 0.0])  # integral floats are counts
        assert s.counts.dtype == np.int64
        np.testing.assert_array_equal(s.counts, [3, 1, 0])

    def test_total_that_overflows_int64_is_named(self):
        # the int64 sum of these counts wraps to a negative total
        for bad in ([2**62, 2**62, 1], [2**62, 2**62, 0], [2**63 - 1, 1]):
            with pytest.raises(InvalidInput, match="overflows"):
                BinnedSample(counts=bad)
        assert BinnedSample(counts=[2**62, 2**62 - 1, 0]).n == 2**63 - 1

    @pytest.mark.parametrize("counts", not_numbers(["1", "2", "3"], [True, False, True],
                                                   [1, 2, 3]))
    def test_rejects_counts_that_are_not_numbers(self, counts):
        with pytest.raises(InvalidInput, match="counts must be integers or floats"):
            BinnedSample(counts=counts)

    def test_frequencies(self):
        s = BinnedSample(counts=np.array([1, 3]))
        assert s.n == 4
        np.testing.assert_allclose(s.frequencies(), [0.25, 0.75])
