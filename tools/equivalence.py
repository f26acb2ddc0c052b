"""Compare the model selections of two source trees, replication by
replication.

    python tools/equivalence.py OLD_SRC NEW_SRC [--reps 125]

Each tree is imported in its own subprocess (PYTHONPATH=<tree>), which runs
``model_select`` on the same design: n in {20, 300}, h in {1/2, 1}, mixture
weight pi in {0, 1/2, 1}, the default cells and the cuts
1,2,5,10,20,50,100,1000,10000, with ``--reps`` replications per
combination (125 give 3000).  Replication r of a combination draws its
sample from ``substream(SEED, n, h, r)``, as ``run_experiment`` does.

Each worker also runs ``run_experiment`` on the same design, one config
per cut set and weight (seed SEED, sizes SIZES, weights H_VALUES,
``--reps`` replications), plus one config per cut set at pi = 1/2 on the
DEGENERATE_SIZES, whose samples of one to three observations make many
replications degenerate (NaN HI, skipped by HI's mean and SD); it
studentizes its replications in batches rather than one ``model_select``
call at a time.  The worker renders each config's rows with
``emit_table`` in the ``csv`` and the ``text`` format, and runs
``phdsel.cli.main`` on CLI_CALLS, over data files that it writes: fits
in the box and at its bound, goodness-of-fit tests (one far in the upper
tail, on a single occupied cell), a decisive selection,
selections with identical fits and with zero variance, and the
equidistance solve on the default and the wide cuts.  On each cut set of
POPULATION_CUTS (the default, the wide and the cuts 2,4,6,8,10,15) it
also computes the population values: ``mixture_cell_probs`` at each
weight in PIS, ``equidistance_gap`` at each weight in GAP_PIS and each h
in H_VALUES, and the ``pi_star`` and ``degenerate`` flag of
``equidistance_pi`` at each h in H_VALUES, for the two families and for
the Poisson family against itself (the degenerate path), and the public
wrappers of the selection-variance row core at fixed inputs
(``row_core_values``: ``jacobian``, ``m_matrix``, ``omega_sq``, the
``lambda_star_hat`` variance and the DegenerateVariance reason of
identical fits and of a one-cell sample); it also fits ``mle_binned`` to
each CLI data file on the default cells.  It calls
the scalar functions ``power_approx``, ``required_sample_size``,
``chi2_quantile`` and ``normal_quantile`` on a fixed grid
of valid inputs (``scalar_values``), numpy scalars, the sample sizes 1 and
300 and power inputs whose products overflow a double among them.  It
also fits both families to COUNT_VECTORS fixed-seed sparse count vectors
on each cut set of POPULATION_CUTS (``count_fits``), where study draws
never reach: ``minimize_phd`` at each h in H_VALUES and ``mle_binned``.

Prints the largest differences between the trees, one ``key=value`` line
each: fitted parameters in box widths, distances, and the relative
differences of HI and gamma_hat (two NaNs count as equal), then the counts
of replications whose decision or degenerate flag differs and of those
whose two fits differ in their objective, evaluation count, convergence or
bound flag, which shows whether the minimizer took the same steps and
reached the same minimum (the reported distances are recomputed at the
estimates, so they need not be the objectives); then, over the
``run_experiment`` rows, the largest relative difference of a mean or SD
and the counts of rows whose percentages or ``n_degenerate`` differ, and
the count of rendered tables and of CLI stdout texts that are not
byte-identical, and the counts of population values (mixture cell vectors,
gaps and equidistance weights), of scalar values (a result, or the name
of the error raised) and of count-vector fits (estimate, objective,
evaluations, convergence and bound flag, or the name of the error raised)
that are not bit-identical, and over the count-vector fits that both trees
completed, the largest move of an estimate in its model's box widths and
the count of fits whose objective rose.  Exits 1 when any decision,
degenerate flag, fit objective, count or flag, percentage,
``n_degenerate``, table, CLI text, population, scalar or count-vector fit
value differs, 2 on a usage or import error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

SEED = 1001
SIZES = (20, 300)
DEGENERATE_SIZES = (1, 2, 3)
H_VALUES = (0.5, 1.0)
PIS = (0.0, 0.5, 1.0)
GAP_PIS = (0.25, 0.5, 0.75)
WIDE_CUTS = "1,2,5,10,20,50,100,1000,10000"
# the cut sets of the population values; None is the default cells
POPULATION_CUTS = (None, WIDE_CUTS, "2,4,6,8,10,15")
COUNT_VECTORS = 128  # the sparse count vectors fitted on each cut set
# The data files of the CLI calls, one observation per line: besides
# draws.txt, POISSON_N Poisson(4) draws, values past the last default cut
# (the Poisson rate is pinned at its bound) and one value repeated (one
# occupied cell, zero selection variance).
CLI_DATA = {"far.txt": [100, 200, 300], "one_cell.txt": [3] * 40}
POISSON_N = 300
CLI_CALLS = (
    ["estimate", "--data", "draws.txt", "--model", "poisson"],
    ["estimate", "--data", "draws.txt", "--model", "geometric", "--h", "1"],
    ["estimate", "--data", "far.txt", "--model", "poisson"],
    ["gof", "--data", "draws.txt", "--model", "poisson"],
    ["gof", "--data", "one_cell.txt", "--model", "poisson"],
    ["select", "--data", "draws.txt", "--model1", "poisson", "--model2", "geometric"],
    ["select", "--data", "draws.txt", "--model1", "poisson", "--model2", "poisson"],
    ["select", "--data", "one_cell.txt", "--model1", "poisson", "--model2", "geometric"],
    ["equidistance"],
    ["equidistance", "--cuts", WIDE_CUTS],
)


def cli_data(ph) -> dict[str, list[int]]:
    """Worker side: the observations of each CLI data file, by file name."""
    draws = ph.sample_mixture(ph.MixtureDGP(pi=1.0), POISSON_N,
                              ph.substream(SEED, POISSON_N, 0.5, 0))
    return {"draws.txt": [int(v) for v in draws], **CLI_DATA}


def cli_outputs(ph) -> list[str]:
    """Worker side: the stdout of ``phdsel.cli.main`` on each CLI call."""
    from phdsel.cli import main

    data = cli_data(ph)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, values in data.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write("".join(f"{v}\n" for v in values))
        for call in CLI_CALLS:
            argv = [os.path.join(tmp, a) if a in data else a for a in call]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(argv)
            outputs.append(out.getvalue())
    return outputs


def scalar_values(ph) -> list:
    """Worker side: each scalar function on each point of its grid, as the
    result or the name of the error it raised."""
    import numpy as np

    levels = (1e-10, 0.05, np.float64(0.5), 0.95, 1.0 - 2**-53)
    dfs = (1, np.int64(6), 30)
    calls = [(ph.normal_quantile, q) for q in levels]
    calls += [(ph.chi2_quantile, q, df) for q in levels for df in dfs]
    calls += [(ph.power_approx, D, om, n, alpha, df)
              for D in (0.0, 1e-3, np.float64(0.02)) for om in (0.05, np.float64(0.3))
              for n in (1, np.int64(20), 300) for alpha in (0.01, np.float64(0.05))
              for df in (1, 6)]
    # 2 n D and 2 sqrt(n) sqrt(omega_sq) overflow a double
    calls += [(ph.power_approx, D, 1e308, 1e308, 0.05, 6) for D in (0.0, 1.0)]
    calls += [(ph.required_sample_size, D, om, alpha, beta, df)
              for D in (1e-3, np.float64(0.02), 0.2) for om in (0.05, 0.3)
              for alpha in (0.01, 0.05) for beta in (0.2, np.float64(0.5), 0.8)
              for df in (1, np.int64(6))]
    values = []
    for fn, *args in calls:
        try:
            value = fn(*args)
            values.append(value if isinstance(value, int) else float(value))
        except Exception as exc:  # a refusal counts as a value too
            values.append(type(exc).__name__)
    return values


def degenerate_reason(ph, *args) -> str | None:
    """Worker side: the ``reason`` of the DegenerateVariance that
    ``lambda_star_hat`` raises on ``args``, None when it raises none."""
    try:
        ph.lambda_star_hat(*args)
    except ph.DegenerateVariance as exc:
        return exc.reason
    return None


def row_core_values(ph, part, phats) -> list:
    """Worker side: the public wrappers of the selection-variance row core
    on the partition ``part``, the Poisson family at rate 4 and the
    geometric at p = 0.2: both Jacobians and projections,
    ``omega_sq`` of each family against the first frequencies of ``phats``
    and the ``lambda_star_hat`` variance against each, at each h in
    H_VALUES, and the degenerate reason of identical fits and of a sample
    on one cell."""
    pois, geom = ph.poisson_model(part), ph.geometric_model(part)
    at = ((pois, [4.0]), (geom, [0.2]))
    values = [f(model, theta).tolist() for f in (ph.jacobian, ph.m_matrix) for model, theta in at]
    values += [ph.omega_sq(phats[0], model, theta, h) for model, theta in at for h in H_VALUES]
    values += [ph.lambda_star_hat(phat, pois, [4.0], geom, [0.2], h).GammaSq
               for phat in phats for h in H_VALUES]
    one_cell = [0.0] * 3 + [1.0] + [0.0] * (part.m - 4)
    return values + [degenerate_reason(ph, phats[0], pois, [4.0], pois, [4.0], 0.5),
                     degenerate_reason(ph, one_cell, pois, [3.0], geom, [0.3], 0.5)]


def population_values(ph) -> list:
    """Worker side: on each cut set of POPULATION_CUTS, the mixture cells at
    each weight in PIS, the gap at each weight in GAP_PIS and each h in
    H_VALUES, the equidistance solve (``pi_star`` and ``degenerate``) of
    the two families and of the Poisson family against itself at each h in
    H_VALUES, and ``row_core_values`` against the mixture with weight 1/2
    and the binned Poisson draws of the CLI; then the ``mle_binned`` fit
    (estimate, objective, evaluations) of each family to each CLI data
    file on the default cells, or the name of the error it raised."""
    values = []
    data = cli_data(ph)
    for cuts in POPULATION_CUTS:
        part = ph.default_partition() if cuts is None else ph.parse_cuts(cuts)
        pois, geom = ph.poisson_model(part), ph.geometric_model(part)
        # floats survive the JSON round trip exactly, so == compares bits
        values += [ph.mixture_cell_probs(pi, part).tolist() for pi in PIS]
        values += [ph.equidistance_gap(pi, pois, geom, part, h)
                   for pi in GAP_PIS for h in H_VALUES]
        values += [[r.pi_star, r.degenerate]
                   for r in (ph.equidistance_pi(pois, model, part, h)
                             for model in (geom, pois) for h in H_VALUES)]
        draws = ph.empirical_frequencies(data["draws.txt"], part)[1]
        values += row_core_values(ph, part, (ph.mixture_cell_probs(0.5, part), draws))
    part = ph.default_partition()
    for observations in data.values():
        sample = ph.empirical_frequencies(observations, part)[0]
        for model in (ph.poisson_model(part), ph.geometric_model(part)):
            try:
                fit = ph.mle_binned(model, sample)
                values.append([float(fit.theta_hat[0]), fit.objective, fit.evaluations])
            except ph.PhdselError as exc:  # a refusal counts as a value too
                values.append(type(exc).__name__)
    return values


def count_fits(ph) -> tuple[list, list[float]]:
    """Worker side: on each cut set of POPULATION_CUTS, COUNT_VECTORS
    Dirichlet-multinomial count vectors of 1 to 400 draws, many of them with
    empty cells (seed SEED), and the fits of both families to each:
    ``minimize_phd`` at each h in H_VALUES and ``mle_binned``, each as its
    estimate, objective, evaluations, convergence and bound flag, or the
    name of the error it raised; and the box width of each fit's model."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    values, widths = [], []
    for cuts in POPULATION_CUTS:
        part = ph.default_partition() if cuts is None else ph.parse_cuts(cuts)
        alpha = rng.choice([0.05, 0.3, 1.0], size=(COUNT_VECTORS, 1))
        weights = rng.gamma(alpha, size=(COUNT_VECTORS, part.m))
        counts = rng.multinomial(rng.integers(1, 401, size=COUNT_VECTORS),
                                 weights / weights.sum(axis=1)[:, None])
        for sample in map(ph.BinnedSample, counts):
            for model in (ph.poisson_model(part), ph.geometric_model(part)):
                calls = [(ph.minimize_phd, model, sample, h) for h in H_VALUES]
                for fit_fn, *args in calls + [(ph.mle_binned, model, sample)]:
                    widths.append(model.bounds[0][1] - model.bounds[0][0])
                    try:
                        fit = fit_fn(*args)
                        values.append([float(fit.theta_hat[0]), fit.objective, fit.evaluations,
                                       fit.converged, fit.at_bound])
                    except ph.PhdselError as exc:  # a refusal counts as a value too
                        values.append(type(exc).__name__)
    return values, widths


def replay(src: str, reps: int) -> dict:
    """Worker side: the per-replication selections of the tree ``src``."""
    import phdsel as ph

    if not os.path.realpath(ph.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"phdsel imported from {ph.__file__}, not from {src}")
    rows, bounds, experiment, tables = [], {}, [], []
    for part in (ph.default_partition(), ph.parse_cuts(WIDE_CUTS)):
        pois, geom = ph.poisson_model(part), ph.geometric_model(part)
        bounds = {"theta1": pois.bounds[0], "theta2": geom.bounds[0]}
        # floats survive the JSON round trip exactly, so == compares bits
        for pi, sizes in [(pi, SIZES) for pi in PIS] + [(0.5, DEGENERATE_SIZES)]:
            config = ph.ExperimentConfig(pi=pi, sizes=sizes, reps=reps, h_values=H_VALUES,
                                         seed=SEED, partition=part)
            block = ph.run_experiment(config)
            experiment += [dataclasses.asdict(row) for row in block]
            tables += [ph.emit_table(block, "csv"), ph.emit_table(block, "text")]
        for pi in PIS:
            dgp = ph.MixtureDGP(pi=pi)
            for n in SIZES:
                for h in H_VALUES:
                    for rep in range(reps):
                        data = ph.sample_mixture(dgp, n, ph.substream(SEED, n, h, rep))
                        sample, _ = ph.empirical_frequencies(data, part)
                        r = ph.model_select(sample, pois, geom, h)
                        rows.append([float(r.fit1.theta_hat[0]), float(r.fit2.theta_hat[0]),
                                     r.d1, r.d2, r.hi, r.gamma_hat, r.decision,
                                     r.degenerate]
                                    + [[fit.objective, fit.evaluations, fit.converged,
                                        fit.at_bound] for fit in (r.fit1, r.fit2)])
    fits, widths = count_fits(ph)
    return {"bounds": bounds, "rows": rows, "experiment": experiment, "tables": tables,
            "cli": cli_outputs(ph), "population": population_values(ph),
            "scalars": scalar_values(ph), "count_fits": fits, "count_fit_widths": widths}


def _fail(message: str):
    print(f"equivalence: {message}", file=sys.stderr)
    raise SystemExit(2)


def run_tree(src: str, reps: int) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", src,
                           "--reps", str(reps)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        _fail(f"replay of {src} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _rel(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare(old: dict, new: dict) -> dict:
    """The largest differences between two replays of one design."""
    widths = [hi - lo for lo, hi in (new["bounds"]["theta1"], new["bounds"]["theta2"])]
    out = {"replications": len(new["rows"]), "max_theta_delta_box_widths": 0.0,
           "max_distance_delta": 0.0, "max_hi_rel_delta": 0.0,
           "max_gamma_hat_rel_delta": 0.0, "decision_differences": 0,
           "degenerate_differences": 0, "fit_differences": 0}
    if len(old["rows"]) != len(new["rows"]):
        _fail("the trees replayed different numbers of replications")
    for a, b in zip(old["rows"], new["rows"]):
        for i, width in enumerate(widths):
            out["max_theta_delta_box_widths"] = max(out["max_theta_delta_box_widths"],
                                                    abs(a[i] - b[i]) / width)
        out["max_distance_delta"] = max(out["max_distance_delta"],
                                        abs(a[2] - b[2]), abs(a[3] - b[3]))
        out["max_hi_rel_delta"] = max(out["max_hi_rel_delta"], _rel(a[4], b[4]))
        out["max_gamma_hat_rel_delta"] = max(out["max_gamma_hat_rel_delta"], _rel(a[5], b[5]))
        out["decision_differences"] += a[6] != b[6]
        out["degenerate_differences"] += a[7] != b[7]
        out["fit_differences"] += a[8:] != b[8:]
    out.update(compare_experiment(old["experiment"], new["experiment"]))
    out["table_differences"] = sum(a != b for a, b in zip(old["tables"], new["tables"]))
    out["cli_differences"] = sum(a != b for a, b in zip(old["cli"], new["cli"]))
    out["population_differences"] = sum(a != b for a, b in zip(old["population"],
                                                              new["population"]))
    if len(old["scalars"]) != len(new["scalars"]):
        _fail("the trees computed different numbers of scalar values")
    out["scalar_differences"] = sum(a != b for a, b in zip(old["scalars"], new["scalars"]))
    if len(old["count_fits"]) != len(new["count_fits"]):
        _fail("the trees made different numbers of count-vector fits")
    out["count_fit_differences"] = sum(a != b for a, b in zip(old["count_fits"],
                                                             new["count_fits"]))
    out.update(compare_count_fits(old["count_fits"], new["count_fits"], new["count_fit_widths"]))
    return out


def compare_count_fits(old: list, new: list, widths: list[float]) -> dict:
    """The largest move of a count-vector fit's estimate, in its model's box
    widths, and the count of fits whose objective rose, over the fits that
    both trees completed."""
    out = {"max_count_fit_theta_delta_box_widths": 0.0, "count_fit_objective_increases": 0}
    for a, b, width in zip(old, new, widths):
        if isinstance(a, list) and isinstance(b, list):
            out["max_count_fit_theta_delta_box_widths"] = max(
                out["max_count_fit_theta_delta_box_widths"], abs(a[0] - b[0]) / width)
            out["count_fit_objective_increases"] += b[1] > a[1]
    return out


def compare_experiment(old: list[dict], new: list[dict]) -> dict:
    """The largest differences between two runs of the ``run_experiment``
    design, row by row."""
    if len(old) != len(new):
        _fail("the trees produced different numbers of experiment rows")
    out = {"experiment_rows": len(new), "max_row_rel_delta": 0.0,
           "row_pct_differences": 0, "row_degenerate_differences": 0}
    for a, b in zip(old, new):
        for key in (k for k in a if k.endswith(("_mean", "_sd"))):
            out["max_row_rel_delta"] = max(out["max_row_rel_delta"], _rel(a[key], b[key]))
        out["row_pct_differences"] += any(a[k] != b[k] for k in a if k.startswith("pct_"))
        out["row_degenerate_differences"] += a["n_degenerate"] != b["n_degenerate"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="SRC",
                        help="OLD_SRC NEW_SRC: directories holding the phdsel package")
    parser.add_argument("--reps", type=int, default=125,
                        help="replications per combination (default 125)")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(replay(args.worker, args.reps), sys.stdout)
        return 0
    if len(args.trees) != 2 or args.reps < 1:
        parser.error("need OLD_SRC NEW_SRC and --reps >= 1")
    old, new = (run_tree(src, args.reps) for src in args.trees)
    result = compare(old, new)
    for key, value in result.items():
        print(f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}")
    differing = ("decision_differences", "degenerate_differences", "fit_differences",
                 "row_pct_differences", "row_degenerate_differences", "table_differences",
                 "cli_differences", "population_differences", "scalar_differences",
                 "count_fit_differences")
    return 1 if any(result[key] for key in differing) else 0


if __name__ == "__main__":
    sys.exit(main())
