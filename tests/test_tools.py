"""The maintenance scripts under tools/ run and report what they promise."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def test_equivalence_of_a_tree_with_itself_is_exact():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "equivalence.py"),
                           SRC, SRC, "--reps", "2"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    fields = dict(line.split("=", 1) for line in proc.stdout.strip().split("\n"))
    assert fields.pop("replications") == "48"
    # 3 weights x 2 sizes and 3 degenerate sizes x 2 penalty weights, on 2 cut sets
    assert fields.pop("experiment_rows") == "36"
    experiment = {key: fields.pop(key) for key in ("max_row_rel_delta", "row_pct_differences",
                                                   "row_degenerate_differences",
                                                   "table_differences",
                                                   "cli_differences",
                                                   "population_differences",
                                                   "row_core_differences",
                                                   "max_row_core_rel_delta",
                                                   "scalar_differences",
                                                   "count_fit_differences")}
    assert all(value == "0" for value in experiment.values()), experiment
    assert set(fields) == {"max_theta_delta_box_widths", "max_distance_delta",
                           "max_hi_rel_delta", "max_gamma_hat_rel_delta",
                           "decision_differences", "degenerate_differences",
                           "fit_differences", "max_count_fit_theta_delta_box_widths",
                           "count_fit_objective_increases"}
    assert all(value == "0" for value in fields.values()), fields


def test_equivalence_rejects_a_tree_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "equivalence.py"),
                           str(tmp_path), SRC, "--reps", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 2
    assert proc.stdout == ""
