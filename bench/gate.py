"""Correctness gate for the benchmark.

Two kinds of checks:

* against values recorded at the seed commit (``golden.json``), for the
  canonical inputs of each workload: study rows, the CLI ``select`` output
  and the equidistance weight.  Tolerances follow the optimizer's: the fit
  stops when its bracket is below 1e-8 of the box width, so a kernel change
  that moves an estimate inside that bracket still passes, while a changed
  decision or a wrong estimate does not;
* checks that hold for any seed: row invariants, a replay of a block
  through the public per-replication API (each decision must equal
  ``decide(hi, z)``), and a dense-grid oracle on fits.

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import math
import os

import numpy as np

FIT_TOL = 1e-8  # minimize_scalar's default tolerance, as a share of box width

# Fields of an ExperimentRow with their tolerance: ("theta", width) means
# twice the optimizer's bracket on that parameter's box.
POISSON_WIDTH = 50.0
GEOMETRIC_WIDTH = 1.0
ROW_FIELDS = {
    "lambda_mean": ("abs", 2 * FIT_TOL * POISSON_WIDTH),
    "lambda_sd": ("abs", 2 * FIT_TOL * POISSON_WIDTH),
    "p_mean": ("abs", 2 * FIT_TOL * GEOMETRIC_WIDTH),
    "p_sd": ("abs", 2 * FIT_TOL * GEOMETRIC_WIDTH),
    "dhp_poisson_mean": ("abs", 1e-9),
    "dhp_poisson_sd": ("abs", 1e-9),
    "dhp_geometric_mean": ("abs", 1e-9),
    "dhp_geometric_sd": ("abs", 1e-9),
    "hi_mean": ("rel", 1e-5),
    "hi_sd": ("rel", 1e-5),
    "pct_favor_poisson": ("exact", 0.0),
    "pct_favor_geometric": ("exact", 0.0),
    "pct_indecisive": ("exact", 0.0),
    "pct_correct": ("exact", 0.0),
    "pct_incorrect": ("exact", 0.0),
    "n_degenerate": ("exact", 0.0),
}
# CLI select prints 10 significant digits; hi and gamma_hat depend on the
# estimates through the plug-in variance, the distances only to second order.
SELECT_FIELDS = {
    "hi": ("rel", 1e-5),
    "gamma_hat": ("rel", 1e-5),
    "d1": ("abs", 1e-9),
    "d2": ("abs", 1e-9),
    "z": ("rel", 1e-9),
    "decision": ("exact", 0.0),
    "degenerate": ("exact", 0.0),
}
PI_STAR_TOL = 1e-6
ORACLE_GRID = 401


def parse_kv(text: str) -> dict[str, str]:
    """Parse the CLI's ``key=value`` stdout; any other line is an error."""
    out = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep or not key or key in out:
            raise ValueError(f"malformed CLI output line {line!r}")
        out[key] = value
    return out


def _close(a, b, kind: str, tol: float) -> bool:
    if kind == "exact" or isinstance(a, str) or isinstance(b, str):
        return a == b
    if a is None or b is None:
        return a is b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    limit = tol * max(abs(a), abs(b)) if kind == "rel" else tol
    return abs(a - b) <= limit


def compare(actual: dict, expected: dict, fields: dict, where: str) -> list[str]:
    errors = []
    for key, (kind, tol) in fields.items():
        if key not in actual or key not in expected:
            errors.append(f"{where}: field {key} missing")
        elif not _close(actual[key], expected[key], kind, tol):
            errors.append(f"{where}: {key}={actual[key]!r}, expected {expected[key]!r}")
    return errors


def row_dict(row) -> dict:
    return {k: getattr(row, k) for k in ("pi", "n", "h", *ROW_FIELDS)}


def compare_rows(rows: list[dict], golden: list[dict], where: str) -> list[str]:
    if len(rows) != len(golden):
        return [f"{where}: {len(rows)} rows, expected {len(golden)}"]
    errors = []
    for r, g in zip(rows, golden):
        errors += compare(r, g, {"n": ("exact", 0), "h": ("exact", 0), **ROW_FIELDS},
                          f"{where} n={g['n']}")
    return errors


def compare_select(fields: dict[str, str], golden: dict[str, str], where: str) -> list[str]:
    def value(key, v):
        return v if SELECT_FIELDS[key][0] == "exact" else float(v)

    actual = {k: value(k, v) for k, v in fields.items() if k in SELECT_FIELDS}
    expected = {k: value(k, v) for k, v in golden.items() if k in SELECT_FIELDS}
    return compare(actual, expected, SELECT_FIELDS, where)


def check_decision(fields: dict[str, str], decide, where: str) -> list[str]:
    """The printed decision must follow from the printed hi and z."""
    if fields.get("degenerate") == "true":
        return [] if fields.get("decision") == "indecisive" else [
            f"{where}: degenerate report with decision {fields.get('decision')}"]
    try:
        want = decide(float(fields["hi"]), float(fields["z"]))
    except (KeyError, ValueError) as exc:
        return [f"{where}: unreadable select output ({exc})"]
    got = fields.get("decision")
    return [] if got == want else [f"{where}: decision {got}, decide(hi, z) gives {want}"]


def check_pi_star(value: float, golden: float) -> list[str]:
    if abs(value - golden) <= PI_STAR_TOL:
        return []
    return [f"pi_star={value!r}, expected {golden!r} +/- {PI_STAR_TOL}"]


def check_row_invariants(row: dict, pi: float, h: float, sizes, reps: int,
                         bounds: dict[str, tuple[float, float]], where: str) -> list[str]:
    """Facts every study row satisfies whatever its seed."""
    e = []
    if row["n"] not in sizes or row["h"] != h or row["pi"] != pi:
        e.append(f"{where}: unexpected block key pi={row['pi']} n={row['n']} h={row['h']}")
    total = row["pct_favor_poisson"] + row["pct_favor_geometric"] + row["pct_indecisive"]
    if abs(total - 100.0) > 1e-9:
        e.append(f"{where}: decision percentages sum to {total}")
    truth = {1.0: ("pct_favor_poisson", "pct_favor_geometric"),
             0.0: ("pct_favor_geometric", "pct_favor_poisson")}.get(pi)
    if truth and (row["pct_correct"] != row[truth[0]] or row["pct_incorrect"] != row[truth[1]]):
        e.append(f"{where}: pct_correct/pct_incorrect do not match the true family")
    for key, (lo, hi) in (("lambda_mean", bounds["poisson"]), ("p_mean", bounds["geometric"])):
        if not lo <= row[key] <= hi:
            e.append(f"{where}: {key}={row[key]} outside [{lo}, {hi}]")
    for key in ("dhp_poisson_mean", "dhp_geometric_mean"):
        if not 0.0 <= row[key] <= 4.0:
            e.append(f"{where}: {key}={row[key]} outside [0, 4]")
    for key in ("lambda_sd", "p_sd", "dhp_poisson_sd", "dhp_geometric_sd"):
        if not row[key] >= 0.0:
            e.append(f"{where}: {key}={row[key]} is not >= 0")
    if not 0 <= row["n_degenerate"] <= reps:
        e.append(f"{where}: n_degenerate={row['n_degenerate']} outside [0, {reps}]")
    if row["n_degenerate"] < reps and not math.isfinite(row["hi_mean"]):
        e.append(f"{where}: hi_mean is not finite")
    return e


def aggregate(pi: float, n: int, h: float, reps: list[tuple]) -> dict:
    """Row fields from per-replication (lambda, p, d1, d2, hi, decision,
    degenerate) tuples, computed independently of the program's own
    aggregation."""
    lam, p, d1, d2, hi = (np.array([r[i] for r in reps], dtype=float) for i in range(5))
    decisions = [r[5] for r in reps]
    ok = ~np.isnan(hi)

    def sd(v):
        return float(np.std(v, ddof=1)) if v.size > 1 else 0.0

    def pct(label):
        return 100.0 * sum(d == label for d in decisions) / len(reps)

    fav1, fav2 = pct("favor_first"), pct("favor_second")
    correct = {1.0: (fav1, fav2), 0.0: (fav2, fav1)}.get(pi, (None, None))
    return {
        "pi": pi, "n": n, "h": h,
        "lambda_mean": float(lam.mean()), "lambda_sd": sd(lam),
        "p_mean": float(p.mean()), "p_sd": sd(p),
        "dhp_poisson_mean": float(d1.mean()), "dhp_poisson_sd": sd(d1),
        "dhp_geometric_mean": float(d2.mean()), "dhp_geometric_sd": sd(d2),
        "hi_mean": float(hi[ok].mean()) if ok.any() else math.nan,
        "hi_sd": sd(hi[ok]) if ok.any() else math.nan,
        "pct_favor_poisson": fav1, "pct_favor_geometric": fav2,
        "pct_indecisive": pct("indecisive"),
        "pct_correct": correct[0], "pct_incorrect": correct[1],
        "n_degenerate": sum(r[6] for r in reps),
    }


def oracle_check(ph, model, sample, h: float, fit, where: str) -> list[str]:
    """The fit must be no worse than the best point of a dense grid over the
    box, and no worse than its neighbours one optimizer tolerance away."""
    freqs = sample.frequencies()

    def objective(t):
        return ph.penalized_hellinger(freqs, model.cell_prob(np.array([t])), h)

    lo, hi = model.bounds[0]
    grid_best = min(objective(t) for t in np.linspace(lo, hi, ORACLE_GRID))
    theta = float(fit.theta_hat[0])
    step = 4 * FIT_TOL * (hi - lo)
    local = min(objective(min(max(t, lo), hi)) for t in (theta - step, theta + step))
    slack = 1e-12
    e = []
    if fit.objective > grid_best + slack:
        e.append(f"{where}: {model.name} fit {fit.objective!r} worse than grid {grid_best!r}")
    if fit.objective > local + slack:
        e.append(f"{where}: {model.name} fit {fit.objective!r} worse than neighbour {local!r}")
    return e


def replay_block(ph, config, check_oracle: int) -> tuple[list[dict], list[str]]:
    """Re-run every replication of ``config`` through the public API one at
    a time, checking each decision; the first ``check_oracle`` replications
    of each size also get the dense-grid oracle on both fits."""
    pois = ph.poisson_model(config.partition)
    geom = ph.geometric_model(config.partition)
    dgp = ph.MixtureDGP(pi=config.pi)
    rows, errors = [], []
    for n in config.sizes:
        for h in config.h_values:
            reps = []
            for rep in range(config.reps):
                where = f"replay n={n} h={h} rep={rep}"
                data = ph.sample_mixture(dgp, n, ph.substream(config.seed, n, h, rep))
                sample, _ = ph.empirical_frequencies(data, config.partition)
                r = ph.model_select(sample, pois, geom, h, config.alpha)
                if r.degenerate:
                    if r.decision != ph.INDECISIVE:
                        errors.append(f"{where}: degenerate but {r.decision}")
                elif r.decision != ph.decide(r.hi, r.z):
                    errors.append(f"{where}: decision {r.decision} != decide(hi, z)")
                if rep < check_oracle:
                    errors += oracle_check(ph, pois, sample, h, r.fit1, where)
                    errors += oracle_check(ph, geom, sample, h, r.fit2, where)
                reps.append((r.fit1.theta_hat[0], r.fit2.theta_hat[0], r.d1, r.d2,
                             r.hi, r.decision, r.degenerate))
            rows.append(aggregate(config.pi, n, h, reps))
    return rows, errors


def golden_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
