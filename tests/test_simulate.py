import dataclasses
import json
import math

import numpy as np
import pytest

import phdsel.fit
from phdsel import (CellPartition, ExperimentConfig, InvalidInput, MixtureDGP,
                    NoEquidistance, config_from_dict, default_partition,
                    emit_table, empirical_frequencies, equidistance_gap,
                    equidistance_pi, geometric_model, load_config,
                    model_select, poisson_model, run_experiment,
                    sample_mixture, substream)
from phdsel.simulate import _aggregate


def small_config(**overrides):
    base = dict(pi=1.0, sizes=(30,), reps=20, h_values=(0.5,), alpha=0.05,
                seed=424242)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_mirror_the_study_design(self):
        config = ExperimentConfig(pi=0.25)
        assert config.sizes == (20, 30, 40, 50, 300)
        assert config.reps == 1000
        assert config.h_values == (1.0, 0.5)
        assert config.alpha == 0.05
        assert config.partition.m == 8

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
                    dict(reps=True)):
            with pytest.raises(InvalidInput):
                ExperimentConfig(pi=0.5, **bad)

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
        # integers only: int() would truncate 2.7 to 2 and accept "3"
        for key, value in (("seed", -1), ("seed", 1.5), ("seed", "3"),
                           ("reps", 2.7), ("reps", 0), ("reps", True),
                           ("sizes", [20, 2.5]), ("sizes", [0])):
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

    def test_rows_equal_aggregated_per_replication_selections(self, monkeypatch):
        # 2 sizes x 2 weights x 5 replications = 20 rows, fitted in chunks of
        # 7, 7 and 6 rows
        monkeypatch.setattr(phdsel.fit, "CHUNK_ROWS", 7)
        config = small_config(pi=0.5, sizes=(20, 30), h_values=(1.0, 0.5), reps=5)
        part = config.partition
        pois, geom = poisson_model(part), geometric_model(part)
        expected = []
        for n in config.sizes:
            for h in config.h_values:
                results = []
                for rep in range(config.reps):
                    data = sample_mixture(MixtureDGP(pi=config.pi), n,
                                          substream(config.seed, n, h, rep))
                    sample, _ = empirical_frequencies(data, part)
                    r = model_select(sample, pois, geom, h, config.alpha)
                    results.append((r.fit1.theta_hat[0], r.fit2.theta_hat[0], r.d1,
                                    r.d2, r.hi, r.decision, r.degenerate))
                expected.append(_aggregate(config, n, h, results))
        assert run_experiment(config) == expected

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


class TestEquidistance:
    def test_identical_families_return_half_with_flag(self):
        part = default_partition()
        result = equidistance_pi(poisson_model(part), poisson_model(part),
                                 part, 0.5)
        assert result.pi_star == 0.5
        assert result.degenerate

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
        with pytest.raises(NoEquidistance):
            equidistance_pi(far_pois, geom, part, 0.5)


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

    def test_unknown_format_rejected(self):
        rows = run_experiment(small_config(reps=3))
        with pytest.raises(InvalidInput):
            emit_table(rows, "yaml")
        with pytest.raises(InvalidInput):
            emit_table([], "csv")
