import dataclasses
import json
import math
import re

import numpy as np
import pytest

import phdsel.simulate
from phdsel import (FAVOR_FIRST, FAVOR_SECOND, INDECISIVE, CellPartition,
                    ExperimentConfig, ExperimentRow, InvalidInput, InvalidParameter, MixtureDGP,
                    NoEquidistance, config_from_dict, default_partition,
                    emit_table, empirical_frequencies, equidistance_gap,
                    equidistance_pi, geometric_model, load_config,
                    model_select, parse_cuts, poisson_model, run_experiment,
                    sample_mixture, substream)
from phdsel.inference import _critical_z


def small_config(**overrides):
    base = dict(pi=1.0, sizes=(30,), reps=20, h_values=(0.5,), alpha=0.05,
                seed=424242)
    base.update(overrides)
    return ExperimentConfig(**base)


def per_replication(config, n, h):
    """The ``model_select`` report of each replication of the (n, h) block
    of ``config``, each drawn from its substream as ``run_experiment``
    draws it."""
    part = config.partition
    pois, geom = poisson_model(part), geometric_model(part)
    reports = []
    for rep in range(config.reps):
        data = sample_mixture(MixtureDGP(pi=config.pi), n, substream(config.seed, n, h, rep))
        sample, _ = empirical_frequencies(data, part)
        reports.append(model_select(sample, pois, geom, h, config.alpha))
    return reports


def block_row(config, n, h, reports):
    """The row of the (n, h) block from its replications' ``model_select``
    reports: the mean and SD (ddof=1, 0.0 for one replication) of each
    estimate and distance, HI's over the replications that are not
    degenerate (NaN without one), and the share of each decision."""
    def sd(v):
        return float(np.std(v, ddof=1)) if v.size > 1 else 0.0

    lam, p, d1, d2 = (np.array(v) for v in zip(*(
        (r.fit1.theta_hat[0], r.fit2.theta_hat[0], r.d1, r.d2) for r in reports)))
    assert [math.isnan(r.hi) for r in reports] == [r.degenerate for r in reports]
    hi = np.array([r.hi for r in reports if not r.degenerate])
    pct = {d: 100.0 * sum(r.decision == d for r in reports) / len(reports)
           for d in (FAVOR_FIRST, FAVOR_SECOND, INDECISIVE)}
    correct = {1.0: (pct[FAVOR_FIRST], pct[FAVOR_SECOND]),
               0.0: (pct[FAVOR_SECOND], pct[FAVOR_FIRST])}.get(config.pi, (None, None))
    return ExperimentRow(
        pi=config.pi, n=n, h=h,
        lambda_mean=float(np.mean(lam)), lambda_sd=sd(lam),
        p_mean=float(np.mean(p)), p_sd=sd(p),
        dhp_poisson_mean=float(np.mean(d1)), dhp_poisson_sd=sd(d1),
        dhp_geometric_mean=float(np.mean(d2)), dhp_geometric_sd=sd(d2),
        hi_mean=float(np.mean(hi)) if hi.size else math.nan,
        hi_sd=sd(hi) if hi.size else math.nan,
        pct_favor_poisson=pct[FAVOR_FIRST], pct_favor_geometric=pct[FAVOR_SECOND],
        pct_indecisive=pct[INDECISIVE], pct_correct=correct[0], pct_incorrect=correct[1],
        n_degenerate=sum(r.degenerate for r in reports))


def nan_as_none(row):
    """``row`` as a dict with NaN values as None, so that == compares them;
    each value's type is kept beside it."""
    return {key: (None if isinstance(v, float) and math.isnan(v) else v, type(v))
            for key, v in dataclasses.asdict(row).items()}


class TestConfig:
    def test_defaults_mirror_the_study_design(self):
        config = ExperimentConfig(pi=0.25)
        assert config.sizes == (20, 30, 40, 50, 300)
        assert config.reps == 1000
        assert config.h_values == (1.0, 0.5)
        assert config.alpha == 0.05
        assert config.partition.m == 8

    def test_list_valued_fields_are_stored_as_tuples(self):
        config = ExperimentConfig(pi=0.5, sizes=[20], reps=2, h_values=[0.5])
        assert (config.sizes, config.h_values) == ((20,), (0.5,))
        assert config == ExperimentConfig(pi=0.5, sizes=(20,), reps=2, h_values=(0.5,))
        assert hash(config) == hash(ExperimentConfig(pi=0.5, sizes=(20,), reps=2,
                                                     h_values=(0.5,)))

    def test_validation(self):
        with pytest.raises(InvalidInput):
            ExperimentConfig(pi=1.5)
        with pytest.raises(InvalidInput):
            ExperimentConfig(pi=0.5, reps=0)
        with pytest.raises(InvalidInput):
            ExperimentConfig(pi=0.5, sizes=())
        with pytest.raises(InvalidInput):
            ExperimentConfig(pi=0.5, h_values=(0.5, 0.0))
        for bad in (dict(seed=-1), dict(seed=1.5), dict(reps=2.7), dict(sizes=(20, 30.5)),
                    dict(reps=True), dict(pi="0.5"), dict(pi=True), dict(alpha="0.1"),
                    dict(alpha=True), dict(alpha=1e-16), dict(partition="x"),
                    dict(h_values=(10**400,))):
            with pytest.raises(InvalidInput, match=next(iter(bad))):
                ExperimentConfig(**{"pi": 0.5, **bad})
        # repeated sizes share their substream keys, so their blocks would
        # draw the same samples and return equal rows
        for sizes in ((20, 20), [20, 30, np.int64(20)]):
            with pytest.raises(InvalidInput, match="sizes must be a nonempty list of distinct"):
                ExperimentConfig(pi=0.5, sizes=sizes)

    def test_sizes_above_the_cap_are_refused(self):
        # a chunk holds CHUNK_ROWS samples of n draws: 2**62 draws cannot be
        # drawn, and 10**5 is the largest size a config takes
        cap = phdsel.simulate.MAX_STUDY_SIZE
        raw = dict(pi=0.5, sizes=[20], reps=1, h_values=[0.5], alpha=0.05,
                   seed=1, cuts=[1, 2, 3, 4, 5, 6, 7])
        for bad in (cap + 1, np.int64(cap + 1), 2**62, 10**400):
            with pytest.raises(InvalidInput, match=re.escape(f"sizes must be a nonempty list "
                                                             f"of distinct integers in [1, {cap}]")):
                ExperimentConfig(pi=0.5, sizes=(20, bad))
            with pytest.raises(InvalidInput, match="config key 'sizes' is invalid"):
                config_from_dict({**raw, "sizes": [20, bad]})
        assert cap == 10**5
        assert ExperimentConfig(pi=0.5, sizes=(1, cap)).sizes == (1, cap)
        assert config_from_dict({**raw, "sizes": [cap]}).sizes == (cap,)

    def test_partition_needs_the_cells_of_a_family(self):
        # a family has at least 3 cells: a config on fewer is refused before
        # run_experiment builds its families
        raw = dict(pi=1.0, sizes=[20], reps=1, h_values=[0.5], alpha=0.05,
                   seed=1, cuts=[1, 2, 3, 4, 5, 6, 7])
        with pytest.raises(InvalidInput, match="partition must be a CellPartition of at least "
                                               "3 cells"):
            ExperimentConfig(pi=1.0, partition=parse_cuts("1"))
        for bad in ([1], [0.5], (7,)):
            with pytest.raises(InvalidInput, match=re.escape("config key 'cuts' is invalid: "
                                                             "must be a list of at least 2")):
                config_from_dict({**raw, "cuts": bad})
        config = config_from_dict({**raw, "cuts": [1, 2]})
        assert config.partition == parse_cuts("1,2") and config.partition.m == 3
        assert len(run_experiment(config)) == 1

    def test_h_values_must_be_nonempty_numeric_weights(self):
        # an empty grid has no blocks to run, and true is not the weight 1
        for bad in ((), (True,), (0.5, True)):
            with pytest.raises(InvalidInput, match="h_values"):
                ExperimentConfig(pi=0.5, h_values=bad)
        raw = dict(pi=0.5, sizes=[20], reps=5, h_values=[0.5], alpha=0.05,
                   seed=1, cuts=[1, 2, 3, 4, 5, 6, 7])
        for bad in ([], [True], [0.5, True], ["0.5"]):
            with pytest.raises(InvalidInput, match="h_values"):
                config_from_dict({**raw, "h_values": bad})

    def test_h_values_must_have_distinct_finite_substream_keys(self):
        # substream keys a weight as round(h * 10**6): two weights that round
        # to one key would draw the same samples, and a key must be finite
        raw = dict(pi=0.5, sizes=[5], reps=1, h_values=[0.5], alpha=0.05,
                   seed=1, cuts=[1, 2, 3, 4, 5, 6, 7])
        for bad in ((1.0, 1.0000004), (0.5, 0.5), (1e303,), (1.7976931348623157e302,),
                    (np.float64(1e303),), (10**303,), (1e-7, 2e-7)):
            with pytest.raises(InvalidInput, match="h_values"):
                ExperimentConfig(pi=0.5, sizes=(5,), reps=1, h_values=bad)
            with pytest.raises(InvalidInput, match="config key 'h_values' is invalid"):
                config_from_dict({**raw, "h_values": list(bad)})
        with pytest.raises(InvalidInput, match="h_values"):
            run_experiment(ExperimentConfig(pi=0.5, sizes=(5,), reps=1, h_values=(1e303,)))
        # the largest weight accepted, and weights a millionth apart
        for good in ((1e100,), (1.0, 1.000001), (1e-6, 2e-6)):
            assert ExperimentConfig(pi=0.5, h_values=good).h_values == good
            assert config_from_dict({**raw, "h_values": list(good)}).h_values == good

    def test_weight_above_the_cap_is_refused(self):
        # overflow starts near h = 1e150 in the selection variance; the cap
        # 1e100 refuses such weights before a study draws a sample
        raw = dict(pi=0.5, sizes=[5], reps=2, h_values=[0.5], alpha=0.05,
                   seed=1, cuts=[1, 2, 3, 4, 5, 6, 7])
        for bad in (1e300, 1.0000000000000002e100, 10**101, np.float64(1e300)):
            with pytest.raises(InvalidInput, match=re.escape(f"got ({bad!r},)")):
                ExperimentConfig(pi=0.5, sizes=(5,), reps=2, h_values=(bad,))
            with pytest.raises(InvalidInput, match=re.escape(f"got [{bad!r}]")):
                config_from_dict({**raw, "h_values": [bad]})

    def test_from_dict_names_offending_key(self):
        raw = dict(pi=0.5, sizes=[20], reps=5, h_values=[0.5], alpha=0.05,
                   seed=1, cuts=[1, 2, 3, 4, 5, 6, 7])
        config_from_dict(raw)  # valid
        for removed in raw:
            bad = {k: v for k, v in raw.items() if k != removed}
            with pytest.raises(InvalidInput, match=removed):
                config_from_dict(bad)
        with pytest.raises(InvalidInput, match="extra"):
            config_from_dict({**raw, "extra": 1})
        with pytest.raises(InvalidInput, match="cuts"):
            config_from_dict({**raw, "cuts": [3, 2, 1]})
        with pytest.raises(InvalidInput, match="h_values"):
            config_from_dict({**raw, "h_values": [math.nan]})
        # each value must pass its rule as read: int() would truncate 2.7 to 2
        # and accept "3", float() would read true as 1.0 and "2" as 2.0
        for key, value in (("seed", -1), ("seed", 1.5), ("seed", "3"),
                           ("reps", 2.7), ("reps", 0), ("reps", True),
                           ("sizes", [20, 2.5]), ("sizes", [0]), ("sizes", [20, 20]),
                           ("pi", True), ("pi", "0.5"), ("alpha", True), ("alpha", "0.1"),
                           ("alpha", 1e-17),
                           ("cuts", [True, "2", "3"]), ("cuts", ["1"]), ("cuts", [10**400]),
                           ("sizes", 20), ("h_values", 0.5), ("h_values", [10**400])):
            with pytest.raises(InvalidInput, match=f"config key '{key}' is invalid"):
                config_from_dict({**raw, key: value})

    def test_load_config_round_trip(self, tmp_path):
        raw = dict(pi=0.0, sizes=[20, 50], reps=7, h_values=[1.0, 0.5],
                   alpha=0.05, seed=99, cuts=[1, 2, 3, 4, 5, 6, 7])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        config = load_config(str(path))
        assert config.pi == 0.0
        assert config.sizes == (20, 50)
        assert config.partition == default_partition()


class TestSubstream:
    def test_keyed_independently_of_order(self):
        a = substream(1, 50, 0.5, 3).random(4)
        b = substream(1, 50, 0.5, 3).random(4)
        np.testing.assert_array_equal(a, b)
        c = substream(1, 50, 0.5, 4).random(4)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("key", [(-1, 20, 0.5, 0), (1.5, 20, 0.5, 0), (1, 0, 0.5, 0),
                                     (1, True, 0.5, 0), (1, 20, math.nan, 0), (1, 20, 0.0, 0),
                                     (1, 20, 0.5, -1), (1, 20, 0.5, "0")])
    def test_bad_key_is_refused_naming_it(self, key):
        with pytest.raises(InvalidInput, match=r"substream key must be .*, got "
                           + re.escape(repr(key))):
            substream(*key)

    def test_valid_keys_draw_as_the_seed_sequence_of_the_key(self):
        for seed, n, h, rep in ((0, 1, 1e-6, 0), (2**70, np.int64(300), np.float64(10.0), 999)):
            expected = np.random.default_rng(
                np.random.SeedSequence((seed, n, round(h * 10**6), rep))).random(3)
            np.testing.assert_array_equal(substream(seed, n, h, rep).random(3), expected)


class TestRunExperiment:
    def test_bitwise_deterministic(self):
        config = small_config(reps=6)
        rows1 = run_experiment(config)
        rows2 = run_experiment(config)
        assert rows1 == rows2

    def test_thread_count_does_not_change_rows(self):
        config = small_config(reps=12)
        serial = run_experiment(config)
        threaded = run_experiment(config, max_workers=4)
        assert serial == threaded
        assert emit_table(serial, "csv") == emit_table(threaded, "csv")
        assert run_experiment(config, max_workers=np.int64(1)) == serial

    @pytest.mark.parametrize("workers", [0, -3, "x", 2.0, 1.5, True, math.inf])
    def test_max_workers_is_none_or_a_whole_number_from_1(self, workers):
        with pytest.raises(InvalidInput, match="max_workers must be None or an integer >= 1"):
            run_experiment(small_config(reps=1), max_workers=workers)

    def test_rows_equal_aggregated_per_replication_selections(self, monkeypatch):
        monkeypatch.setattr(phdsel.simulate, "CHUNK_ROWS", 7)
        for overrides in (
                # 2 sizes x 2 weights x 5 replications = 20 rows, fitted in
                # chunks of 7, 7 and 6 rows
                dict(pi=0.5, sizes=(20, 30), h_values=(1.0, 0.5), reps=5),
                # one replication per block: every SD is 0.0
                dict(pi=1.0, sizes=(20, 300), h_values=(1.0, 0.5), reps=1),
                # one and two observations: all and some replications degenerate
                dict(pi=1.0, sizes=(1, 2), h_values=(1.0, 0.5), reps=8)):
            config = small_config(**overrides)
            rows = run_experiment(config)
            expected = [block_row(config, n, h, per_replication(config, n, h))
                        for n in config.sizes for h in config.h_values]
            assert list(map(nan_as_none, rows)) == list(map(nan_as_none, expected)), overrides
        assert {row.n_degenerate for row in rows if row.n == 1} == {config.reps}
        assert any(0 < row.n_degenerate < config.reps for row in rows if row.n == 2)

    def test_one_selection_call_per_chunk(self, monkeypatch):
        select_rows = phdsel.simulate._select_rows
        calls = []

        def counted(phat, *args):
            calls.append(len(phat))
            return select_rows(phat, *args)

        monkeypatch.setattr(phdsel.simulate, "CHUNK_ROWS", 7)
        monkeypatch.setattr(phdsel.simulate, "_select_rows", counted)
        # 2 sizes x 2 weights x 5 replications = 20 rows
        run_experiment(small_config(pi=0.5, sizes=(20, 30), h_values=(1.0, 0.5), reps=5))
        assert calls == [7, 7, 6]

    def test_alpha_just_above_two_to_minus_53_runs(self):
        config = small_config(pi=1.0, sizes=(20,), reps=3, alpha=1e-15)
        assert run_experiment(config)[0].pct_favor_geometric == 0.0
        assert _critical_z(1e-15) == pytest.approx(8.014015948775544, rel=1e-12)

    def test_row_grid_shape(self):
        config = small_config(sizes=(20, 30), h_values=(1.0, 0.5), reps=3)
        rows = run_experiment(config)
        assert [(r.n, r.h) for r in rows] == [(20, 1.0), (20, 0.5),
                                              (30, 1.0), (30, 0.5)]

    def test_percentages_partition_replications(self):
        rows = run_experiment(small_config(reps=40, sizes=(20,)))
        for r in rows:
            total = r.pct_favor_poisson + r.pct_favor_geometric + r.pct_indecisive
            assert total == pytest.approx(100.0, abs=1e-9)

    def test_correct_mapping_depends_on_dgp(self):
        row_pois = run_experiment(small_config(pi=1.0, reps=25, sizes=(300,)))[0]
        assert row_pois.pct_correct == row_pois.pct_favor_poisson
        assert row_pois.pct_incorrect == row_pois.pct_favor_geometric
        row_geom = run_experiment(small_config(pi=0.0, reps=25, sizes=(300,)))[0]
        assert row_geom.pct_correct == row_geom.pct_favor_geometric
        row_mix = run_experiment(small_config(pi=0.5, reps=5, sizes=(30,)))[0]
        assert row_mix.pct_correct is None and row_mix.pct_incorrect is None

    def test_pure_dgp_rarely_incorrect(self):
        for pi in (0.0, 1.0):
            row = run_experiment(small_config(pi=pi, reps=400, sizes=(20,)))[0]
            assert row.pct_incorrect <= 1.0

    def test_contaminated_dgp_trends(self):
        # lightly geometric-contaminated data favor the geometric direction
        # increasingly with n, and symmetrically for the other contamination
        reps = 300
        for pi, sign in ((0.25, 1.0), (0.75, -1.0)):
            config = ExperimentConfig(pi=pi, sizes=(20, 300), reps=reps,
                                      h_values=(0.5,), seed=777)
            rows = run_experiment(config)
            small_n, large_n = rows[0], rows[1]
            se = math.hypot(small_n.hi_sd, large_n.hi_sd) / math.sqrt(reps)
            assert sign * large_n.hi_mean > 0.0
            assert sign * (large_n.hi_mean - small_n.hi_mean) > -2.0 * se


def bisection_pi(gap):
    """The equidistance weight by bisection of ``gap`` one weight at a time,
    down to a bracket narrower than 1e-10, whose midpoint is returned; a
    weight whose gap is exactly 0 is returned.  The reference for a gap
    that changes sign at 0 and 1 and crosses zero once."""
    lo, hi = 0.0, 1.0
    for end in (lo, hi):
        if gap(end) == 0.0:
            return end
    lo_positive = gap(lo) > 0.0
    while hi - lo >= 1e-10:
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if g == 0.0:
            return mid
        if (g > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def count_fit_calls(monkeypatch) -> list:
    """Patch the lockstep fit of ``phdsel.simulate`` to count its calls."""
    calls = []
    fit = phdsel.simulate._fit_phd_rows

    def counted(*args):
        calls.append(args[1].shape[0])
        return fit(*args)

    monkeypatch.setattr(phdsel.simulate, "_fit_phd_rows", counted)
    return calls


EQUIDISTANCE_CUTS = [None, "1,2,5,10,20,50,100,1000,10000", "2,4,6,8,10,15"]
# the equidistance weights at h in {1/2, 1} on the default and the wide cuts
PI_STAR = {None: 0.48899522502324544, EQUIDISTANCE_CUTS[1]: 0.5886196446081158}


class TestEquidistance:
    def test_identical_families_return_half_with_flag(self, monkeypatch):
        part = default_partition()
        calls = count_fit_calls(monkeypatch)
        result = equidistance_pi(poisson_model(part), poisson_model(part),
                                 part, 0.5)
        assert result.pi_star == 0.5
        assert result.degenerate
        assert len(calls) == 1

    @pytest.mark.parametrize("h", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("cuts", EQUIDISTANCE_CUTS)
    def test_matches_one_weight_bisection_bit_for_bit(self, cuts, h):
        part = default_partition() if cuts is None else parse_cuts(cuts)
        pois, geom = poisson_model(part), geometric_model(part)
        expected = bisection_pi(lambda pi: equidistance_gap(pi, pois, geom, part, h))
        result = equidistance_pi(pois, geom, part, h)
        assert result.pi_star.hex() == expected.hex()
        assert not result.degenerate

    @pytest.mark.parametrize("h", [0.5, 1.0])
    @pytest.mark.parametrize("cuts", EQUIDISTANCE_CUTS[:2])
    def test_solve_takes_seven_batched_fits(self, monkeypatch, cuts, h):
        # five bisection levels per call, 34 in all: each call fits the
        # 2**j + 1 weights of its bracket, its ends included, 17 in the last
        part = default_partition() if cuts is None else parse_cuts(cuts)
        calls = count_fit_calls(monkeypatch)
        result = equidistance_pi(poisson_model(part), geometric_model(part), part, h)
        assert calls == [33] * 6 + [17]
        assert result.pi_star == PI_STAR[cuts]

    @pytest.mark.parametrize("root", [0.3, 0.375, 1 / 3, 1e-9, 1.0 - 2**-30, 0.0, 1.0])
    def test_loop_keeps_the_bisection_bracket(self, monkeypatch, root):
        # a linear gap with its one zero at ``root``: a dyadic root is hit
        # exactly, any other is bracketed as bisection brackets it
        gap = lambda pis: np.asarray(pis, dtype=float) - root
        monkeypatch.setattr(phdsel.simulate, "_distance_gaps", lambda pis, *args: gap(pis))
        part = default_partition()
        result = equidistance_pi(poisson_model(part), geometric_model(part), part, 0.5)
        assert result.pi_star == bisection_pi(lambda pi: float(gap([pi])[0]))
        assert abs(result.pi_star - root) < 1e-10
        assert not result.degenerate

    def test_gaps_below_the_tolerance_are_degenerate(self, monkeypatch):
        monkeypatch.setattr(phdsel.simulate, "_distance_gaps",
                            lambda pis, *args: np.full(len(pis), 5e-11))
        part = default_partition()
        result = equidistance_pi(poisson_model(part), geometric_model(part), part, 0.5)
        assert (result.pi_star, result.degenerate) == (0.5, True)

    def test_gap_has_a_single_sign_change(self):
        part = default_partition()
        pois, geom = poisson_model(part), geometric_model(part)
        gaps = [equidistance_gap(pi, pois, geom, part, 0.5)
                for pi in np.linspace(0.0, 1.0, 11)]
        signs = [g > 0 for g in gaps]
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        assert changes == 1

    def test_root_property(self):
        part = default_partition()
        pois, geom = poisson_model(part), geometric_model(part)
        result = equidistance_pi(pois, geom, part, 0.5)
        assert not result.degenerate
        assert abs(equidistance_gap(result.pi_star, pois, geom, part, 0.5)) < 1e-6

    def test_penalty_weight_does_not_move_the_population_root(self):
        # the mixture occupies every cell, so the penalty term is inert
        part = default_partition()
        pois, geom = poisson_model(part), geometric_model(part)
        r_half = equidistance_pi(pois, geom, part, 0.5)
        r_one = equidistance_pi(pois, geom, part, 1.0)
        assert r_half.pi_star == pytest.approx(r_one.pi_star, abs=1e-6)

    def test_no_equidistance_raises(self):
        # a Poisson family restricted to huge rates loses at every mixture,
        # so the distance gap never changes sign
        part = default_partition()
        far_pois = dataclasses.replace(poisson_model(part), bounds=((30.0, 50.0),))
        geom = geometric_model(part)
        with pytest.raises(NoEquidistance, match=re.escape("no sign change on [0, 1]")):
            equidistance_pi(far_pois, geom, part, 0.5)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, True])
    def test_gap_refuses_a_bad_mixing_weight(self, bad):
        part = default_partition()
        pois, geom = poisson_model(part), geometric_model(part)
        with pytest.raises(InvalidParameter, match=re.escape(f"mixing weight must be in "
                                                             f"[0,1], got {bad!r}")):
            equidistance_gap(bad, pois, geom, part, 0.5)

    def test_models_on_different_partitions_are_refused(self):
        # both partitions have 8 cells; only their last finite cut differs
        part, other = default_partition(), parse_cuts("1,2,3,4,5,6,100")
        pois, geom = poisson_model(part), geometric_model(other)
        with pytest.raises(InvalidInput, match=re.escape(repr(other.cuts))):
            equidistance_pi(pois, geom, part, 0.5)
        with pytest.raises(InvalidInput, match=re.escape(repr(other.cuts))):
            equidistance_gap(0.5, pois, geom, part, 0.5)


class TestEmitTable:
    def test_single_row_layout(self):
        rows = run_experiment(small_config(reps=3))
        csv_text = emit_table(rows, "csv")
        lines = csv_text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("pi,n,h,lambda_mean")

    def test_csv_round_trips_through_a_parser(self):
        rows = run_experiment(small_config(reps=5))
        csv_text = emit_table(rows, "csv")
        header, line = csv_text.strip().split("\n")
        fields = dict(zip(header.split(","), line.split(",")))
        assert float(fields["lambda_mean"]) == float(f"{rows[0].lambda_mean:.3f}")
        assert int(fields["n"]) == rows[0].n
        assert float(fields["pct_correct"]) == round(rows[0].pct_correct)

    def test_text_layout_has_study_columns(self):
        rows = run_experiment(small_config(reps=3))
        text = emit_table(rows, "text")
        for col in ("n", "lambda_hat", "p_hat", "DHP(Pois)", "DHP(Geom)", "HI",
                    "%correct", "%indecisive", "%incorrect"):
            assert col in text

    def test_text_hi_of_an_all_degenerate_block_is_empty(self):
        # every replication of one observation is degenerate, so HI has no
        # mean or SD: an empty cell, as for the other missing values
        rows = run_experiment(small_config(pi=0.5, sizes=(1,), reps=2))
        assert math.isnan(rows[0].hi_mean)
        header, line = emit_table(rows, "text").splitlines()
        hi = header.index("HI")  # the column is as wide as its header
        assert line[hi:hi + 2] == "  " and "()" not in line

    def test_unknown_format_rejected(self):
        rows = run_experiment(small_config(reps=3))
        with pytest.raises(InvalidInput):
            emit_table(rows, "yaml")
        with pytest.raises(InvalidInput):
            emit_table([], "csv")


class TestAggregationEdges:
    """Block rows at the edges of the aggregation, value by value against
    per-replication ``model_select`` calls, and their CSV rows exactly."""

    def test_one_replication_has_zero_spreads(self):
        config = small_config(pi=1.0, sizes=(20, 300), h_values=(1.0, 0.5), reps=1)
        rows = run_experiment(config)
        lines = emit_table(rows, "csv").splitlines()[1:]
        blocks = [(n, h) for n in config.sizes for h in config.h_values]
        assert len(rows) == len(lines) == len(blocks)
        for row, line, (n, h) in zip(rows, lines, blocks):
            (r,) = per_replication(config, n, h)
            assert not r.degenerate
            fav1 = 100.0 * (r.decision == FAVOR_FIRST)
            fav2 = 100.0 * (r.decision == FAVOR_SECOND)
            lam, p = float(r.fit1.theta_hat[0]), float(r.fit2.theta_hat[0])
            expected = dict(pi=1.0, n=n, h=h, lambda_mean=lam, lambda_sd=0.0,
                            p_mean=p, p_sd=0.0, dhp_poisson_mean=r.d1, dhp_poisson_sd=0.0,
                            dhp_geometric_mean=r.d2, dhp_geometric_sd=0.0,
                            hi_mean=r.hi, hi_sd=0.0, pct_favor_poisson=fav1,
                            pct_favor_geometric=fav2, pct_indecisive=100.0 - fav1 - fav2,
                            pct_correct=fav1, pct_incorrect=fav2, n_degenerate=0)
            assert dataclasses.asdict(row) == expected
            for key, value in expected.items():
                assert type(getattr(row, key)) is type(value), key
            assert line == ",".join([
                "1", str(n), f"{h:g}", f"{lam:.3f}", "0.000", f"{p:.3f}", "0.000",
                f"{r.d1:.3f}", "0.000", f"{r.d2:.3f}", "0.000", f"{r.hi:.3f}", "0.000",
                f"{fav1:.0f}", f"{fav2:.0f}", f"{100.0 - fav1 - fav2:.0f}",
                f"{fav1:.0f}", f"{fav2:.0f}", "0"])

    def test_one_observation_blocks_are_all_degenerate(self):
        # one observation occupies one cell, where the selection variance is 0
        config = small_config(pi=0.0, sizes=(1,), h_values=(1.0, 0.5), reps=6)
        rows = run_experiment(config)
        lines = emit_table(rows, "csv").splitlines()[1:]
        assert len(rows) == len(lines) == 2
        for row, line, h in zip(rows, lines, config.h_values):
            reports = per_replication(config, 1, h)
            assert all(r.degenerate for r in reports)
            lam, p, d1, d2 = (np.array(v) for v in zip(*(
                (r.fit1.theta_hat[0], r.fit2.theta_hat[0], r.d1, r.d2) for r in reports)))
            moments = [(float(v.mean()), float(np.std(v, ddof=1))) for v in (lam, p, d1, d2)]
            expected = dict(pi=0.0, n=1, h=h,
                            lambda_mean=moments[0][0], lambda_sd=moments[0][1],
                            p_mean=moments[1][0], p_sd=moments[1][1],
                            dhp_poisson_mean=moments[2][0], dhp_poisson_sd=moments[2][1],
                            dhp_geometric_mean=moments[3][0],
                            dhp_geometric_sd=moments[3][1],
                            pct_favor_poisson=0.0, pct_favor_geometric=0.0,
                            pct_indecisive=100.0, pct_correct=0.0, pct_incorrect=0.0,
                            n_degenerate=6)
            got = dataclasses.asdict(row)
            assert math.isnan(got.pop("hi_mean")) and math.isnan(got.pop("hi_sd"))
            assert got == expected
            for key, value in expected.items():
                assert type(getattr(row, key)) is type(value), key
            assert line == ",".join(
                ["0", "1", f"{h:g}"]
                + [f"{x:.3f}" for moment in moments for x in moment]
                + ["", "", "0", "0", "100", "0", "0", "6"])
