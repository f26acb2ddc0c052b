"""Command-line front end.

Subcommands: estimate, gof, select, simulate, equidistance.  Results go to
stdout as ``key=value`` lines (or CSV for simulate); progress and errors go
to stderr.  Exit codes: 0 success, 2 usage or input errors, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .cells import (BinnedSample, CellPartition, _is_test_level, default_partition,
                    empirical_frequencies, parse_cuts)
from .divergence import MAX_PENALTY_WEIGHT, is_penalty_weight
from .errors import InvalidInput, InvalidParameter, PhdselError
from .fit import FitResult, minimize_phd
from .inference import gof_test, model_select
from .models import MODEL_BUILDERS, model_by_name
from .simulate import emit_table, equidistance_pi, load_config, run_experiment

USAGE_EXIT = 2
NUMERICAL_EXIT = 3


def _number(rule, wanted: str):
    """An option type: the float of the text, which must pass ``rule``."""
    def number(text: str) -> float:
        value = float(text)
        if not rule(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value
    return number


def _partition_arg(args) -> CellPartition:
    return parse_cuts(args.cuts) if args.cuts is not None else default_partition()


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
    # options shared by several subcommands, declared once
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="file with one observation per line")
    cells = argparse.ArgumentParser(add_help=False)
    cells.add_argument("--h", type=_number(is_penalty_weight, f"in (0, {MAX_PENALTY_WEIGHT:g}]"),
                       default=0.5, help="empty-cell penalty weight (default 0.5)")
    cells.add_argument("--cuts", help="comma-separated finite cuts, e.g. 1,2,3,4,5,6,7")
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--alpha", type=_number(_is_test_level, "in (0,1) above 2**-53"),
                       default=0.05, help="test level (default 0.05)")

    p = sub.add_parser("estimate", parents=[data, cells],
                       help="fit one model by minimum penalized Hellinger distance")
    p.add_argument("--model", required=True, choices=model_names)
    p = sub.add_parser("gof", parents=[data, cells, level],
                       help="goodness-of-fit test of one model")
    p.add_argument("--model", required=True, choices=model_names)
    p = sub.add_parser("select", parents=[data, cells, level],
                       help="choose between two models")
    p.add_argument("--model1", required=True, choices=model_names)
    p.add_argument("--model2", required=True, choices=model_names)
    p = sub.add_parser("simulate", help="run a replicated selection study")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", help="CSV output path (default stdout)")
    sub.add_parser("equidistance", parents=[cells],
                   help="mixing weight equalizing the two fitted distances")
    return parser


def _print_report(report, **first) -> int:
    """Print ``first`` and then the fields of the result dataclass ``report``,
    in declaration order, as ``key=value`` lines; nested fits are skipped."""
    values = {**first, **{f.name: getattr(report, f.name) for f in dataclasses.fields(report)}}
    for key, value in values.items():
        if isinstance(value, FitResult):
            continue
        if isinstance(value, np.ndarray):
            value = ",".join(f"{v:.10g}" for v in value)
        elif isinstance(value, (bool, np.bool_)):
            value = str(value).lower()
        elif isinstance(value, float):
            value = f"{value:.10g}"
        print(f"{key}={value}")
    return 0


def _binned(args) -> tuple[CellPartition, BinnedSample]:
    """The partition of ``--cuts``, then the ``--data`` file binned on it."""
    part = _partition_arg(args)
    sample, _ = empirical_frequencies(_load_data(args.data), part)
    return part, sample


def _cmd_estimate(args) -> int:
    part, sample = _binned(args)
    return _print_report(minimize_phd(model_by_name(args.model, part), sample, args.h))


def _cmd_gof(args) -> int:
    part, sample = _binned(args)
    report = gof_test(sample, model_by_name(args.model, part), args.h, args.alpha)
    return _print_report(report, theta_hat=report.fit.theta_hat)


def _cmd_select(args) -> int:
    part, sample = _binned(args)
    return _print_report(model_select(sample, model_by_name(args.model1, part),
                                      model_by_name(args.model2, part), args.h, args.alpha))


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
    return _print_report(equidistance_pi(model_by_name("poisson", part),
                                         model_by_name("geometric", part), part, args.h))


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
    except PhdselError as exc:
        print(f"phdsel: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
