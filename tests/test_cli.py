import json
import time

import numpy as np
import pytest

from phdsel import MixtureDGP, sample_mixture
from phdsel.cli import main


@pytest.fixture
def poisson_file(tmp_path):
    rng = np.random.default_rng(2024)
    data = sample_mixture(MixtureDGP(pi=1.0), 300, rng)
    path = tmp_path / "poisson.txt"
    path.write_text("\n".join(str(int(v)) for v in data) + "\n")
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    raw = dict(pi=1.0, sizes=[20, 30], reps=5, h_values=[0.5], alpha=0.05,
               seed=7, cuts=[1, 2, 3, 4, 5, 6, 7])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_prints_key_value_lines(self, capsys, poisson_file):
        code, out, _ = run(capsys, ["estimate", "--data", poisson_file,
                                    "--model", "poisson", "--h", "0.5"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert 3.5 < float(fields["theta_hat"]) < 4.5
        assert float(fields["objective"]) >= 0.0
        assert int(fields["evaluations"]) >= 32
        assert fields["converged"] == "true"

    def test_reports_interior_fit_not_at_bound(self, capsys, poisson_file):
        code, out, _ = run(capsys, ["estimate", "--data", poisson_file,
                                    "--model", "poisson"])
        assert code == 0
        assert "at_bound=false" in out.split("\n")

    @pytest.mark.parametrize("model,values,theta", [
        ("poisson", "100\n200\n300\n", "50"),
        ("geometric", "1\n", "0.999999"),
    ])
    def test_reports_fit_pinned_at_bound(self, capsys, tmp_path, model, values, theta):
        path = tmp_path / "edge.txt"
        path.write_text(values)
        code, out, _ = run(capsys, ["estimate", "--data", str(path), "--model", model])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert fields["theta_hat"] == theta
        assert fields["converged"] == "true"
        assert fields["at_bound"] == "true"

    def test_zero_h_is_a_usage_error(self, capsys, poisson_file):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", poisson_file, "--model", "poisson",
                  "--h", "0"])
        assert exc.value.code == 2

    def test_missing_model_lists_choices(self, capsys, poisson_file):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", poisson_file])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--model" in err

    def test_unknown_model_lists_choices(self, capsys, poisson_file):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", poisson_file, "--model", "weibull"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "poisson" in err and "geometric" in err

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["estimate", "--data",
                                    str(tmp_path / "missing.txt"),
                                    "--model", "poisson"])
        assert code == 2
        assert "error" in err

    def test_negative_data_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n-2\n3\n")
        code, _, err = run(capsys, ["estimate", "--data", str(path),
                                    "--model", "poisson"])
        assert code == 2

    def test_non_numeric_data_exits_2(self, capsys, tmp_path):
        path = tmp_path / "text.txt"
        path.write_text("1\nabc\n3\n")
        code, _, err = run(capsys, ["estimate", "--data", str(path),
                                    "--model", "poisson"])
        assert code == 2
        assert "abc" in err

    def test_custom_cuts(self, capsys, poisson_file):
        code, out, _ = run(capsys, ["estimate", "--data", poisson_file,
                                    "--model", "poisson", "--cuts", "2,4,6,8"])
        assert code == 0

    @pytest.mark.parametrize("command", ["estimate", "equidistance"])
    def test_empty_cut_text_exits_2(self, capsys, poisson_file, command):
        # an empty --cuts is a cut list, not a missing option
        argv = ([command, "--data", poisson_file, "--model", "poisson"]
                if command == "estimate" else [command])
        code, out, err = run(capsys, argv + ["--cuts", ""])
        assert code == 2
        assert out == ""
        assert "cut list is empty" in err


class TestGof:
    def test_reports_statistic_and_threshold(self, capsys, poisson_file):
        code, out, _ = run(capsys, ["gof", "--data", poisson_file,
                                    "--model", "poisson", "--h", "1.0"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert fields["df"] == "6"
        assert float(fields["critical"]) == pytest.approx(12.5916, abs=2e-4)
        assert fields["reject"] in ("true", "false")


class TestSelect:
    def test_poisson_data_favor_first(self, capsys, poisson_file):
        code, out, _ = run(capsys, ["select", "--data", poisson_file,
                                    "--model1", "poisson",
                                    "--model2", "geometric", "--h", "0.5"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert fields["decision"] == "favor_first"
        assert float(fields["hi"]) < -float(fields["z"])
        assert fields["degenerate"] == "false"
        assert fields["degenerate_reason"] == ""

    def test_huge_cut_exits_zero(self, capsys, poisson_file):
        # the cell kernels never size an array by the largest cut
        code, out, _ = run(capsys, ["select", "--data", poisson_file,
                                    "--model1", "poisson",
                                    "--model2", "geometric", "--h", "0.5",
                                    "--cuts", "1,2,3,1e12"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert fields["decision"] in ("favor_first", "favor_second", "indecisive")

    def test_nan_cut_exits_2(self, capsys, poisson_file):
        code, out, err = run(capsys, ["select", "--data", poisson_file,
                                      "--model1", "poisson",
                                      "--model2", "geometric",
                                      "--cuts", "1,nan,3"])
        assert code == 2
        assert out == ""
        assert err.startswith("phdsel: error:")

    def test_weight_above_the_cap_exits_2(self, capsys, poisson_file):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--data", poisson_file, "--model1", "poisson",
                  "--model2", "geometric", "--h", "1e300"])
        assert exc.value.code == 2
        assert "1e300" in capsys.readouterr().err

    def test_identical_models_degenerate_exit_zero(self, capsys, poisson_file):
        code, out, _ = run(capsys, ["select", "--data", poisson_file,
                                    "--model1", "poisson",
                                    "--model2", "poisson", "--h", "0.5"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert fields["decision"] == "indecisive"
        assert fields["degenerate"] == "true"
        assert fields["degenerate_reason"] == "identical_fits"
        keys = [line.split("=", 1)[0] for line in out.strip().split("\n")]
        assert keys[keys.index("degenerate") + 1] == "degenerate_reason"

    def test_one_occupied_cell_reports_zero_variance(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("0\n" * 20)
        code, out, _ = run(capsys, ["select", "--data", str(path), "--model1", "poisson",
                                    "--model2", "geometric", "--h", "0.5"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert fields["decision"] == "indecisive"
        assert fields["degenerate"] == "true"
        assert fields["degenerate_reason"] == "zero_variance"

    @pytest.mark.parametrize("alpha", ["nan", "inf", "1e400", "0", "1", "True",
                                       "1e-17", "1e-16", "1.1102230246251565e-16"])
    def test_alpha_outside_the_open_unit_interval_exits_2(self, capsys, poisson_file, alpha):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--data", poisson_file, "--model1", "poisson",
                  "--model2", "geometric", "--alpha", alpha])
        assert exc.value.code == 2
        assert "argument --alpha:" in capsys.readouterr().err

    def test_alpha_default_documented_in_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--help"])
        assert exc.value.code == 0
        assert "0.05" in capsys.readouterr().out


class TestSimulate:
    def test_row_count_matches_grid(self, capsys, config_file):
        code, out, err = run(capsys, ["simulate", "--config", config_file])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3  # header + 2 sizes x 1 h
        assert "replications" in err

    def test_byte_identical_given_seed(self, capsys, config_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--config", config_file, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", config_file, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_smoke_config_is_fast(self, capsys, tmp_path):
        raw = dict(pi=1.0, sizes=[20], reps=10, h_values=[0.5], alpha=0.05,
                   seed=3, cuts=[1, 2, 3, 4, 5, 6, 7])
        path = tmp_path / "smoke.json"
        path.write_text(json.dumps(raw))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["simulate", "--config", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 5.0

    def test_malformed_config_names_key(self, capsys, tmp_path):
        raw = dict(pi=1.0, sizes=[20], reps=5, h_values=[0.5], alpha=0.05,
                   seed=3)  # cuts missing
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, ["simulate", "--config", str(path)])
        assert code == 2
        assert "cuts" in err


    @pytest.mark.parametrize("key,value", [("seed", -1), ("reps", 2.7)])
    def test_invalid_integer_key_exits_2(self, capsys, tmp_path, key, value):
        raw = dict(pi=1.0, sizes=[20], reps=5, h_values=[0.5], alpha=0.05,
                   seed=3, cuts=[1, 2, 3, 4, 5, 6, 7])
        raw[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, ["simulate", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert f"config key '{key}' is invalid" in err
        assert "Traceback" not in err

    def test_non_utf8_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"pi": 1.0, "note": "caf\xe9"}')
        code, out, err = run(capsys, ["simulate", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("phdsel: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [[], [True]])
    def test_invalid_h_values_exit_2(self, capsys, tmp_path, value):
        raw = dict(pi=1.0, sizes=[20], reps=5, h_values=value, alpha=0.05,
                   seed=3, cuts=[1, 2, 3, 4, 5, 6, 7])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, ["simulate", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert "h_values" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value,named", [
        ("sizes", [4611686018427387904], "config key 'sizes' is invalid"),
        ("sizes", [20, 100001], "config key 'sizes' is invalid"),
        ("cuts", [1], "config key 'cuts' is invalid")])
    def test_config_the_study_cannot_run_exits_2(self, capsys, tmp_path, key, value, named):
        # a size too large to draw, and a partition of fewer than the 3 cells
        # of a family, are refused before any block runs
        raw = dict(pi=1.0, sizes=[20], reps=5, h_values=[0.5], alpha=0.05,
                   seed=3, cuts=[1, 2, 3, 4, 5, 6, 7])
        raw[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, ["simulate", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert named in err
        assert "running" not in err and "Traceback" not in err


class TestEquidistance:
    def test_reports_mixing_weight(self, capsys):
        code, out, _ = run(capsys, ["equidistance", "--h", "0.5"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert 0.0 < float(fields["pi_star"]) < 1.0
        assert fields["degenerate"] == "false"


class TestKeyOrder:
    # each subcommand prints its report's fields in declaration order
    @pytest.mark.parametrize("argv,keys", [
        (["estimate", "--model", "poisson"],
         ["theta_hat", "objective", "evaluations", "converged", "at_bound"]),
        (["gof", "--model", "poisson"],
         ["theta_hat", "statistic", "df", "critical", "p_value", "reject"]),
        (["select", "--model1", "poisson", "--model2", "geometric"],
         ["hi", "gamma_hat", "d1", "d2", "z", "decision", "degenerate", "degenerate_reason"]),
    ])
    def test_fit_commands(self, capsys, poisson_file, argv, keys):
        code, out, _ = run(capsys, argv + ["--data", poisson_file])
        assert code == 0
        assert [line.split("=", 1)[0] for line in out.strip().split("\n")] == keys

    def test_equidistance(self, capsys):
        code, out, _ = run(capsys, ["equidistance"])
        assert code == 0
        assert [line.split("=", 1)[0] for line in out.strip().split("\n")] == [
            "pi_star", "degenerate"]


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["estimate", "--help"],
        ["gof", "--help"],
        ["select", "--help"],
        ["simulate", "--help"],
        ["equidistance", "--help"],
    ])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
