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

    def test_identical_models_degenerate_exit_zero(self, capsys, poisson_file):
        code, out, _ = run(capsys, ["select", "--data", poisson_file,
                                    "--model1", "poisson",
                                    "--model2", "poisson", "--h", "0.5"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert fields["decision"] == "indecisive"
        assert fields["degenerate"] == "true"

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


class TestEquidistance:
    def test_reports_mixing_weight(self, capsys):
        code, out, _ = run(capsys, ["equidistance", "--h", "0.5"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert 0.0 < float(fields["pi_star"]) < 1.0
        assert fields["degenerate"] == "false"


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
