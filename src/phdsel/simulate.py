"""Replicated model-selection experiments over mixture data.

Each replication draws a mixture sample, fits both families by minimum
penalized Hellinger distance, and records the studentized selection
statistic and decision.  Replications use counter-derived random substreams
keyed by (seed, n, h, replication index), so results do not depend on
execution order.

``run_experiment`` takes all replications of a config one chunk of rows at
a time: one ``CellPartition.bin_counts`` call, then one selection call
that fits both families in lockstep (see ``phdsel.fit``) and studentizes
every row (see ``phdsel.asymptotics``).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .cells import CellPartition, _is_real, _is_test_level, _is_whole, default_partition
from .divergence import (MAX_PENALTY_WEIGHT, check_penalty_weight,
                         is_penalty_weight)
from .errors import InvalidInput, NoEquidistance
from .fit import _fit_phd_rows
# model_select is not called here; the benchmark's self-test
# bench/tests/test_bench.py::TestSelfTime::test_recorder_patches_every_binding_and_restores
# requires this module to bind it
from .inference import model_select  # noqa: F401
from .inference import _check_shared_partition, _critical_z, _select_rows
from .models import (MIN_CELLS, DiscreteModel, MixtureDGP, _is_mixing_weight,
                     _mixture_rows, geometric_model, poisson_model, sample_mixture)

DEFAULT_SIZES = (20, 30, 40, 50, 300)
DEFAULT_H_VALUES = (1.0, 0.5)
DEFAULT_REPS = 1000
DEFAULT_ALPHA = 0.05
DEFAULT_SEED = 20260809
# Rows per selection call in run_experiment: a call's start-grid distances
# take (rows, 32, m) arrays per family.  The 10,000-row wide-cuts config (pi=0,
# seed 1003) peaks at 38.7 MB RSS in 1.20 s in chunks of 128 rows, and at
# 123.7 MB in 1.06 s in one chunk of all rows.
CHUNK_ROWS = 128
# The largest study size: a chunk holds CHUNK_ROWS samples of n draws, so one
# chunk of 128 rows at n = 10**5 (pi = 0.5, default cells) peaks near 525 MB
# RSS, against 84 MB at n = 10**4 and 29 MB before the run.
MAX_STUDY_SIZE = 10**5
# The equidistance solve's bisection levels per fit call and its tolerance
EQUI_LEVELS, EQUI_TOL = 5, 1e-10


def _list_of(test, least: int = 1):
    """Rule for a list or tuple of at least ``least`` items, each passing
    ``test``; a string or a bare number is refused, not iterated or wrapped."""
    return lambda v: isinstance(v, (list, tuple)) and len(v) >= least and all(map(test, v))


def _h_key(h) -> int:
    """The penalty weight's part of a substream key: h in millionths."""
    return int(round(h * 10**6))


def _distinct_list_of(test, key):
    """Rule for a nonempty list of items that pass ``test`` with distinct
    substream keys ``key(item)``: two items with one key draw the same samples."""
    return lambda v: _list_of(test)(v) and len(set(map(key, v))) == len(v)


def _as_partition(cuts) -> CellPartition:
    return CellPartition(cuts=(0.0, *cuts, math.inf))


# The one rule of each config field: the test that its value, as given to
# ExperimentConfig or read from JSON, must pass (so true is no number and "3"
# no integer), what the value must be, and how a JSON value that passed becomes
# the field.  JSON names the partition by its finite cuts, and a partition
# must have the MIN_CELLS cells of a family.
_RULES = {
    "pi": (_is_mixing_weight, "a number in [0,1]", float),
    "sizes": (_distinct_list_of(lambda n: _is_whole(n, 1) and n <= MAX_STUDY_SIZE, int),
              f"a nonempty list of distinct integers in [1, {MAX_STUDY_SIZE}]", tuple),
    "reps": (lambda v: _is_whole(v, 1), "an integer >= 1", int),
    "h_values": (_distinct_list_of(is_penalty_weight, _h_key),
                 f"a nonempty list of numbers in (0, {MAX_PENALTY_WEIGHT:g}], no two equal when "
                 "rounded to millionths", lambda v: tuple(map(float, v))),
    "alpha": (_is_test_level, "a number in (0,1) above 2**-53", float),
    "seed": (lambda v: _is_whole(v, 0), "an integer >= 0", int),
    "cuts": (_list_of(_is_real, MIN_CELLS - 1), f"a list of at least {MIN_CELLS - 1} numbers",
             _as_partition),
    "partition": (lambda v: isinstance(v, CellPartition) and v.m >= MIN_CELLS,
                  f"a CellPartition of at least {MIN_CELLS} cells", None),
}
_CONFIG_KEYS = tuple(key for key in _RULES if key != "partition")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One simulation study: a mixture weight crossed with sizes and
    penalty weights."""

    pi: float
    sizes: tuple[int, ...] = DEFAULT_SIZES
    reps: int = DEFAULT_REPS
    h_values: tuple[float, ...] = DEFAULT_H_VALUES
    alpha: float = DEFAULT_ALPHA
    seed: int = DEFAULT_SEED
    partition: CellPartition = field(default_factory=default_partition)

    def __post_init__(self):
        for f in fields(self):
            test, wanted, _ = _RULES[f.name]
            value = getattr(self, f.name)
            if not test(value):
                raise InvalidInput(f"{f.name} must be {wanted}, got {value!r}")
            if isinstance(value, list):  # sizes and h_values: stored hashable
                object.__setattr__(self, f.name, tuple(value))


@dataclass(frozen=True, slots=True)
class ExperimentRow:
    """Aggregates of one (n, h) block of replications.

    Percentages are over all replications; degenerate-variance replications
    are folded into the indecisive percentage but also counted separately.
    The statistic mean/SD skip degenerate replications.  ``pct_correct`` and
    ``pct_incorrect`` are set only when the mixture is a pure component.
    """

    pi: float
    n: int
    h: float
    lambda_mean: float
    lambda_sd: float
    p_mean: float
    p_sd: float
    dhp_poisson_mean: float
    dhp_poisson_sd: float
    dhp_geometric_mean: float
    dhp_geometric_sd: float
    hi_mean: float
    hi_sd: float
    pct_favor_poisson: float
    pct_favor_geometric: float
    pct_indecisive: float
    pct_correct: float | None
    pct_incorrect: float | None
    n_degenerate: int


def substream(seed: int, n: int, h: float, rep: int) -> np.random.Generator:
    """Deterministic per-replication generator keyed by (seed, n, h, rep),
    checked by the config's rules."""
    if not (_is_whole(seed, 0) and _is_whole(n, 1) and is_penalty_weight(h) and _is_whole(rep, 0)):
        raise InvalidInput("substream key must be seed and rep integers >= 0, n an integer >= 1 "
                           f"and h a penalty weight, got {(seed, n, h, rep)!r}")
    return np.random.default_rng(np.random.SeedSequence((seed, n, _h_key(h), rep)))


def run_experiment(config: ExperimentConfig,
                   max_workers: int | None = None) -> list[ExperimentRow]:
    """Run the full grid of (n, h) blocks.

    The R = len(sizes) * len(h_values) * reps replications go
    ``CHUNK_ROWS`` at a time through one ``CellPartition.bin_counts`` call
    and one selection call (``inference._select_rows``: both fits, HI and
    the degenerate flags); each replication draws its sample from its own
    substream keyed by (seed, n, h, rep).  Row r of a selection call is
    bit-identical to that replication alone, so every block row equals the
    aggregate of per-replication ``model_select`` calls.  The means and
    SDs of the estimates and distances of all blocks come from one call
    each, and the decision and degenerate counts of all blocks from one
    count.

    ``max_workers``, None or an integer >= 1 (else InvalidInput), is
    accepted and ignored: the rows never depended on it, and splitting the
    fits or the studentization across two threads measured no faster than
    one thread.
    """
    if max_workers is not None and not _is_whole(max_workers, 1):
        raise InvalidInput(f"max_workers must be None or an integer >= 1, got {max_workers!r}")
    part = config.partition
    dgp = MixtureDGP(pi=config.pi)
    pois = poisson_model(part)
    geom = geometric_model(part)
    blocks = [(n, h) for n in config.sizes for h in config.h_values]
    reps = config.reps
    keys = [(n, h, rep) for n, h in blocks for rep in range(reps)]
    sizes = np.repeat([n for n, _ in blocks], reps)
    weights = np.repeat([h for _, h in blocks], reps)
    # the estimates and distances (lam, p, d1, d2) and HI of every row
    values = np.empty((5, len(keys)))
    degenerate = np.empty(len(keys), dtype=bool)
    for start in range(0, len(keys), CHUNK_ROWS):
        sl = slice(start, start + CHUNK_ROWS)
        draws = [sample_mixture(dgp, n, substream(config.seed, n, h, rep))
                 for n, h, rep in keys[sl]]
        phat = part.bin_counts(draws) / sizes[sl, None]
        fits1, fits2, values[4, sl], degenerate[sl] = _select_rows(phat, sizes[sl], pois, geom,
                                                                   weights[sl])
        values[:4, sl] = fits1.x, fits2.x, fits1.fun, fits2.fun
    # every column as (blocks, reps): row i holds block i's replications
    values = values.reshape(5, len(blocks), reps)
    estimates, hi = values[:4], values[4]
    means = estimates.mean(axis=2).T.tolist()
    # one replication has no spread: every such row shares one 0.0
    sds = estimates.std(axis=2, ddof=1).T.tolist() if reps > 1 else [[0.0] * 4] * len(blocks)
    z = _critical_z(config.alpha)
    # per block, the replications favoring the first family (hi < -z) and the
    # second (hi > z), as ``decide`` rules, and the degenerate ones; a NaN HI
    # (degenerate) is neither decision, so it counts as indecisive
    n_fav1, n_fav2, n_deg = np.count_nonzero(
        [hi < -z, hi > z, degenerate.reshape(len(blocks), reps)], axis=2)
    pcts = (100.0 * np.array([n_fav1, n_fav2, reps - n_fav1 - n_fav2]) / reps).T.tolist()
    rows = []
    for i, (n, h) in enumerate(blocks):
        # HI's mean and SD skip the NaN HI of degenerate replications
        ok = hi[i][~np.isnan(hi[i])]
        hi_mean = hi_sd = math.nan
        if ok.size:
            hi_mean, hi_sd = float(ok.mean()), float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0
        fav1, fav2, indecisive = pcts[i]
        correct = {1.0: (fav1, fav2), 0.0: (fav2, fav1)}.get(config.pi, (None, None))
        # the fields in order: the (mean, SD) of lam, p, d1, d2 and HI, then the shares
        stats = (v for pair in zip([*means[i], hi_mean], [*sds[i], hi_sd]) for v in pair)
        rows.append(ExperimentRow(config.pi, n, h, *stats, fav1, fav2, indecisive, *correct,
                                  int(n_deg[i])))
    return rows


@dataclass(frozen=True)
class EquidistanceResult:
    pi_star: float
    degenerate: bool


def _distance_gaps(pis, model1: DiscreteModel, model2: DiscreteModel,
                   partition: CellPartition, h: float) -> np.ndarray:
    """Fitted-distance gaps d1 - d2 against the exact mixtures with the
    weights ``pis``, all fitted by both families in one call.  No validation."""
    fits1, fits2 = _fit_phd_rows((model1, model2), _mixture_rows(pis, partition), h)
    return fits1.fun - fits2.fun


def equidistance_gap(pi: float, model1: DiscreteModel, model2: DiscreteModel,
                     partition: CellPartition, h: float) -> float:
    """Fitted-distance gap d1 - d2 of the two families against the exact
    mixture with weight ``pi`` (population level, no sampling)."""
    h = check_penalty_weight(h)
    _check_shared_partition(model1.partition, model2.partition, partition)
    return float(_distance_gaps([MixtureDGP(pi=pi).pi], model1, model2, partition, h)[0])


def equidistance_pi(model1: DiscreteModel, model2: DiscreteModel,
                    partition: CellPartition, h: float) -> EquidistanceResult:
    """Mixing weight at which both families are equally distant from the
    mixture: the midpoint of the bisection bracket of the population gap
    once it is narrower than ``EQUI_TOL``.

    Each fit call takes j = min(``EQUI_LEVELS``, the levels still needed)
    levels at once: both families are fitted to the 2**j + 1 evenly spaced
    weights of the bracket, and the first interval whose gap changes sign
    is kept, bisection's own for a gap that crosses zero once.  A weight
    whose gap is exactly 0 is returned.  Identical families, whose first
    gaps are all below ``EQUI_TOL``, give 0.5 with the ``degenerate`` flag.
    A gap of one nonzero sign at 0 and at 1 raises NoEquidistance.
    """
    h = check_penalty_weight(h)
    _check_shared_partition(model1.partition, model2.partition, partition)
    lo, width = 0.0, 1.0
    while width >= EQUI_TOL:
        # no more levels than bring the bracket below EQUI_TOL
        j = min(EQUI_LEVELS, math.floor(math.log2(width / EQUI_TOL)) + 1)
        pis = lo + width / 2**j * np.arange(2**j + 1)
        gaps = _distance_gaps(pis, model1, model2, partition, h)
        if width == 1.0 and np.all(np.abs(gaps) < EQUI_TOL):  # the first call
            return EquidistanceResult(pi_star=0.5, degenerate=True)
        if not gaps.all():  # the first weight whose gap is exactly 0
            return EquidistanceResult(float(pis[np.argmax(gaps == 0.0)]), degenerate=False)
        positive = gaps > 0.0
        if positive[0] == positive[-1]:  # at 0 and 1; every kept bracket changes sign
            raise NoEquidistance("distance gap has no sign change on [0, 1]")
        k = int(np.argmax(positive[1:] != positive[:-1]))
        lo, width = float(pis[k]), width / 2**j
    return EquidistanceResult(pi_star=lo + 0.5 * width, degenerate=False)


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRow))

_TEXT_HEADERS = ("pi", "n", "h", "lambda_hat", "p_hat", "DHP(Pois)",
                 "DHP(Geom)", "HI", "%Pois", "%Geom", "%correct",
                 "%indecisive", "%incorrect")


def _round3(x: float) -> str:
    return "" if math.isnan(x) else f"{x:.3f}"


def _pct(x: float | None) -> str:
    return "" if x is None else f"{x:.0f}"


def _csv_cell(key: str, value) -> str:
    if key in ("pi", "h"):
        return f"{value:g}"
    if key in ("n", "n_degenerate"):
        return str(value)
    return _pct(value) if key.startswith("pct_") else _round3(value)


def emit_table(rows: list[ExperimentRow], format: str = "csv") -> str:
    """Render experiment rows: ``csv`` for machines, ``text`` for humans.

    Values carry three decimals and percentages are rounded to integers.
    """
    if not rows:
        raise InvalidInput("no rows to render")
    if format == "csv":
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            out.write(",".join(_csv_cell(key, getattr(r, key)) for key in CSV_COLUMNS) + "\n")
        return out.getvalue()
    if format == "text":
        table = [_TEXT_HEADERS]
        for r in rows:
            table.append((f"{r.pi:g}", str(r.n), f"{r.h:g}",
                          f"{r.lambda_mean:.3f}({r.lambda_sd:.3f})",
                          f"{r.p_mean:.3f}({r.p_sd:.3f})",
                          f"{r.dhp_poisson_mean:.3f}({r.dhp_poisson_sd:.3f})",
                          f"{r.dhp_geometric_mean:.3f}({r.dhp_geometric_sd:.3f})",
                          "" if math.isnan(r.hi_mean) else f"{r.hi_mean:.3f}({r.hi_sd:.3f})",
                          _pct(r.pct_favor_poisson), _pct(r.pct_favor_geometric),
                          _pct(r.pct_correct), _pct(r.pct_indecisive),
                          _pct(r.pct_incorrect)))
        widths = [max(len(row[i]) for row in table) for i in range(len(_TEXT_HEADERS))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
                 for row in table]
        return "\n".join(lines) + "\n"
    raise InvalidInput(f"unknown table format {format!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a flat JSON-style mapping; errors name the offending key.

    Each value must pass its field's rule as read, before any conversion:
    ``float`` would take true for 1.0 and "0.5" for 0.5, ``int`` 2.7 for 2.
    """
    for key in _CONFIG_KEYS:
        if key not in raw:
            raise InvalidInput(f"config key '{key}' is missing")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise InvalidInput(f"config key '{sorted(unknown)[0]}' is not recognized")
    kw = {}
    for key in _CONFIG_KEYS:
        test, wanted, convert = _RULES[key]
        try:
            if not test(raw[key]):
                raise InvalidInput(f"must be {wanted}, got {raw[key]!r}")
            kw[key] = convert(raw[key])
        except InvalidInput as exc:
            raise InvalidInput(f"config key '{key}' is invalid: {exc}") from exc
    return ExperimentConfig(partition=kw.pop("cuts"), **kw)


def load_config(path: str) -> ExperimentConfig:
    """Read an ExperimentConfig from a flat JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
            raise InvalidInput(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidInput("config must be a JSON object")
    return config_from_dict(raw)
