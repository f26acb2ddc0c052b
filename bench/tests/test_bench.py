"""Tests for the benchmark's own code: span arithmetic, the correctness
gate and the CLI output parser.

    python3 -m pytest bench/tests
"""

import copy
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gate  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def golden():
    with open(gate.golden_path(), encoding="utf-8") as fh:
        return json.load(fh)


class TestSelfTime:
    def test_synthetic_tree(self):
        # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
        tree = [Span(0, None, "simulate.run", 0.0, 10.0),
                Span(1, 0, "fit.fit", 1.0, 3.0),
                Span(2, 0, "fit.fit", 4.0, 8.0),
                Span(3, 2, "models.cell_prob", 5.0, 6.0)]
        assert spans.self_times(tree) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}

    def test_overlapping_children_are_not_double_counted(self):
        tree = [Span(0, None, "a.root", 0.0, 10.0),
                Span(1, 0, "b.x", 2.0, 6.0),
                Span(2, 0, "b.y", 4.0, 9.0),
                Span(3, 0, "b.z", 9.5, 12.0)]  # clipped to the parent
        assert spans.self_times(tree)[0] == pytest.approx(10.0 - 7.0 - 0.5)

    def test_summary_layers_and_nested_fits(self):
        tree = [Span(0, None, "simulate.run", 0.0, 10.0),
                Span(1, 0, "inference.select", 0.0, 9.0, {"degenerate": False}),
                Span(2, 1, "fit.fit", 0.0, 4.0,
                     {"evaluations": 5, "converged": True, "at_bound": False}),
                Span(3, 2, "fit.fit", 0.5, 3.5,
                     {"evaluations": 5, "converged": True, "at_bound": False}),
                Span(4, 3, "models.cell_prob", 1.0, 2.0),
                Span(5, 1, "asymptotics.lambda_star", 5.0, 8.0),
                Span(6, 5, "models.cell_prob", 6.0, 7.0)]
        s = spans.summarize(tree, ops=1)
        assert s["wall"] == 10.0
        assert s["fits"] == 1 and s["fit_evaluations"] == 5
        assert s["cell_prob_in_asymptotics"] == 1
        assert s["layer_self"] == pytest.approx(
            {"simulate": 1.0, "inference": 2.0, "fit": 3.0, "models": 2.0,
             "asymptotics": 2.0})

    def test_recorder_patches_every_binding_and_restores(self):
        import phdsel
        import phdsel.cli
        import phdsel.inference
        original = phdsel.inference.model_select
        rec = spans.Recorder()
        with rec:
            assert phdsel.cli.model_select is phdsel.inference.model_select
            assert phdsel.simulate.model_select is not original
            part = phdsel.default_partition()
            sample, _ = phdsel.empirical_frequencies([0, 1, 2, 3, 4, 5, 3, 4], part)
            phdsel.model_select(sample, phdsel.poisson_model(part),
                                phdsel.geometric_model(part), 0.5)
        assert phdsel.cli.model_select is original
        assert phdsel.simulate.model_select is original
        names = {s.name for s in rec.spans}
        assert {"inference.select", "fit.fit", "models.cell_prob", "divergence.phd",
                "asymptotics.lambda_star", "quantiles.normal_quantile"} <= names
        roots = [s for s in rec.spans if s.parent is None]
        assert [s.name for s in roots] == ["cells.bin", "inference.select"]


class TestGate:
    def test_golden_rows_pass(self):
        g = golden()["study"]["rows"]
        assert gate.compare_rows(copy.deepcopy(g), g, "study") == []

    def test_perturbed_row_is_rejected(self):
        g = golden()["study"]["rows"]
        bad = copy.deepcopy(g)
        bad[1]["lambda_mean"] += 1e-5
        assert gate.compare_rows(bad, g, "study")
        bad = copy.deepcopy(g)
        bad[0]["pct_favor_poisson"] += 5.0
        assert gate.compare_rows(bad, g, "study")

    def test_move_inside_optimizer_tolerance_passes(self):
        g = golden()["study"]["rows"]
        moved = copy.deepcopy(g)
        moved[1]["lambda_mean"] += 1e-10
        moved[1]["p_mean"] -= 1e-10
        assert gate.compare_rows(moved, g, "study") == []

    def test_pi_star(self):
        value = golden()["pi_star"]
        assert abs(value - 0.488995) < 1e-6
        assert gate.check_pi_star(value + 1e-8, value) == []
        assert gate.check_pi_star(0.535, value)
        assert gate.check_pi_star(value + 1e-4, value)

    def test_select_output_and_decision(self):
        g = golden()["cli"]["select"]
        assert gate.compare_select(dict(g), g, "select") == []
        bad = dict(g, hi=str(float(g["hi"]) * 1.001))
        assert gate.compare_select(bad, g, "select")

        def decide(hi, z):
            return "favor_first" if hi < -z else "favor_second" if hi > z else "indecisive"

        assert gate.check_decision(g, decide, "select") == []
        assert gate.check_decision(dict(g, decision="indecisive"), decide, "select")

    def test_row_invariants(self):
        row = golden()["study"]["rows"][0]
        bounds = {"poisson": (1e-6, 50.0), "geometric": (1e-6, 1 - 1e-6)}
        assert gate.check_row_invariants(row, 1.0, 0.5, (20, 300), 3, bounds, "r") == []
        bad = dict(row, pct_indecisive=row["pct_indecisive"] + 1.0)
        assert gate.check_row_invariants(bad, 1.0, 0.5, (20, 300), 3, bounds, "r")


class TestParser:
    def test_key_value_lines(self):
        out = "hi=-5.1\ngamma_hat=0.6\n\ndecision=favor_first\n"
        assert gate.parse_kv(out) == {"hi": "-5.1", "gamma_hat": "0.6",
                                      "decision": "favor_first"}

    def test_value_may_contain_equals(self):
        assert gate.parse_kv("theta_hat=a=b\n") == {"theta_hat": "a=b"}

    @pytest.mark.parametrize("text", ["hi -5.1\n", "=3\n", "hi=1\nhi=2\n"])
    def test_malformed_output_is_rejected(self, text):
        with pytest.raises(ValueError):
            gate.parse_kv(text)
