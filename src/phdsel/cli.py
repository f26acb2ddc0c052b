"""Command-line front end.

Subcommands: estimate, gof, select, simulate, equidistance.  Results go to
stdout as ``key=value`` lines (or CSV for simulate); progress and errors go
to stderr.  Exit codes: 0 success, 2 usage or input errors, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .cells import CellPartition, default_partition, empirical_frequencies, parse_cuts
from .errors import (FitFailed, InvalidInput, InvalidParameter, NoEquidistance,
                     PhdselError, SingularInformation)
from .fit import minimize_phd
from .inference import gof_test, model_select
from .models import MODEL_BUILDERS, model_by_name
from .simulate import emit_table, equidistance_pi, load_config, run_experiment

USAGE_EXIT = 2
NUMERICAL_EXIT = 3


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _level(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0,1), got {text}")
    return value


def _partition_arg(args) -> CellPartition:
    return parse_cuts(args.cuts) if args.cuts else default_partition()


def _load_data(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = [float(tok) for line in fh for tok in line.split()]
        except ValueError as exc:
            raise InvalidInput(f"data file {path!r}: {exc}") from exc
    if not values:
        raise InvalidInput(f"data file {path!r} contains no observations")
    return np.asarray(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phdsel",
        description="Minimum penalized Hellinger estimation, goodness-of-fit "
                    "testing, and two-model selection for binned count data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model_names = sorted(MODEL_BUILDERS)

    p = sub.add_parser("estimate", help="fit one model by minimum penalized "
                                        "Hellinger distance")
    p.add_argument("--data", required=True, help="file with one observation per line")
    p.add_argument("--model", required=True, choices=model_names)
    p.add_argument("--h", type=_positive_float, default=0.5,
                   help="empty-cell penalty weight (default 0.5)")
    p.add_argument("--cuts", help="comma-separated finite cuts, e.g. 1,2,3,4,5,6,7")

    p = sub.add_parser("gof", help="goodness-of-fit test of one model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, choices=model_names)
    p.add_argument("--h", type=_positive_float, default=0.5)
    p.add_argument("--alpha", type=_level, default=0.05,
                   help="test level (default 0.05)")
    p.add_argument("--cuts")

    p = sub.add_parser("select", help="choose between two models")
    p.add_argument("--data", required=True)
    p.add_argument("--model1", required=True, choices=model_names)
    p.add_argument("--model2", required=True, choices=model_names)
    p.add_argument("--h", type=_positive_float, default=0.5)
    p.add_argument("--alpha", type=_level, default=0.05,
                   help="test level (default 0.05)")
    p.add_argument("--cuts")

    p = sub.add_parser("simulate", help="run a replicated selection study")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = sub.add_parser("equidistance", help="mixing weight equalizing the "
                                            "two fitted distances")
    p.add_argument("--h", type=_positive_float, default=0.5)
    p.add_argument("--cuts")
    return parser


def _cmd_estimate(args) -> int:
    part = _partition_arg(args)
    sample, _ = empirical_frequencies(_load_data(args.data), part)
    model = model_by_name(args.model, part)
    fit = minimize_phd(model, sample, args.h)
    theta = ",".join(f"{v:.10g}" for v in fit.theta_hat)
    print(f"theta_hat={theta}")
    print(f"objective={fit.objective:.10g}")
    print(f"evaluations={fit.evaluations}")
    print(f"converged={str(fit.converged).lower()}")
    print(f"at_bound={str(fit.at_bound).lower()}")
    return 0


def _cmd_gof(args) -> int:
    part = _partition_arg(args)
    sample, _ = empirical_frequencies(_load_data(args.data), part)
    model = model_by_name(args.model, part)
    report = gof_test(sample, model, args.h, args.alpha)
    theta = ",".join(f"{v:.10g}" for v in report.fit.theta_hat)
    print(f"theta_hat={theta}")
    print(f"statistic={report.statistic:.10g}")
    print(f"df={report.df}")
    print(f"critical={report.critical:.10g}")
    print(f"p_value={report.p_value:.10g}")
    print(f"reject={str(report.reject).lower()}")
    return 0


def _cmd_select(args) -> int:
    part = _partition_arg(args)
    sample, _ = empirical_frequencies(_load_data(args.data), part)
    model1 = model_by_name(args.model1, part)
    model2 = model_by_name(args.model2, part)
    report = model_select(sample, model1, model2, args.h, args.alpha)
    print(f"hi={report.hi:.10g}")
    print(f"gamma_hat={report.gamma_hat:.10g}")
    print(f"d1={report.d1:.10g}")
    print(f"d2={report.d2:.10g}")
    print(f"z={report.z:.10g}")
    print(f"decision={report.decision}")
    print(f"degenerate={str(report.degenerate).lower()}")
    print(f"degenerate_reason={report.degenerate_reason}")
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    total = len(config.sizes) * len(config.h_values)
    print(f"running {total} blocks of {config.reps} replications "
          f"(pi={config.pi:g}, seed={config.seed})", file=sys.stderr)
    rows = run_experiment(config)
    csv_text = emit_table(rows, "csv")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_equidistance(args) -> int:
    part = _partition_arg(args)
    result = equidistance_pi(model_by_name("poisson", part),
                             model_by_name("geometric", part), part, args.h)
    print(f"pi_star={result.pi_star:.10g}")
    print(f"degenerate={str(result.degenerate).lower()}")
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "gof": _cmd_gof,
    "select": _cmd_select,
    "simulate": _cmd_simulate,
    "equidistance": _cmd_equidistance,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, InvalidInput, InvalidParameter) as exc:
        print(f"phdsel: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (FitFailed, SingularInformation, NoEquidistance, PhdselError) as exc:
        print(f"phdsel: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
