"""Parametric cell-probability models and the mixture data generator.

A model maps parameters to the probabilities of the partition cells through
one array kernel, ``cell_fn``, built once per model from the partition's
integer cell edges: interior cell i covers the integers [e_i, e_{i+1}) of
the family's support, where e_i is the cut ceil(cuts[i]) raised to the
support's first point.  The kernel takes a (B, k) parameter array and
returns (B, m) cell probabilities without validation.  The last cell
absorbs the residual 1 - sum(interior), so each row is normalized exactly
rather than by truncated summation.

* Poisson: the cumulative pmf, pmf(0) = exp(-lam) and
  pmf(x) = pmf(x-1) * lam / x by cumulative product, differenced at the
  edges.  The sum stops at T = min(e_{m-1}, floor(lam + 12 sqrt(lam) + 40))
  with lam the largest rate of the batch.  T = e_{m-1} whenever
  e_{m-1} <= 40, as on the default cells; there the kernel builds its
  divisors and edge indices once and never reads the largest rate.  The
  Poisson mass beyond T is below 3e-34 for every rate up to 1e4, far below
  half an ulp of the running cdf, which is within rounding of 1 there;
  adding those terms would not change one bit of the sums, so the
  truncation is exact, and the cost no longer grows with the largest cut.
* Geometric on {1, 2, ...}: cell [a, b) in closed form,
  (1-p)^(a-1) (1 - (1-p)^(b-a)) evaluated as
  exp((a-1) log1p(-p)) * -expm1((b-a) log1p(-p)), which keeps full relative
  accuracy where (1-p)**k would amplify the rounding of 1-p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cells import (CellPartition, _as_prob_rows, _is_real, as_prob_vector,
                    default_partition)
from .errors import InvalidInput, InvalidParameter

POISSON_BOUNDS = (1e-6, 50.0)
GEOMETRIC_BOUNDS = (1e-6, 1.0 - 1e-6)
# 0-d arrays: as ufunc operands they skip the conversion a Python float
# needs, which is a measurable share of a kernel call on a few rows
_ZERO, _ONE = np.zeros(()), np.ones(())


@dataclass(frozen=True)
class DiscreteModel:
    """A named one-parameter family of cell-probability vectors on a
    partition of at least 3 cells.

    ``cell_fn`` maps a (B, k) parameter array to the (B, m) cell
    probabilities of ``partition`` and does no validation; ``cell_prob`` is
    its validated batch of one.  ``bounds`` holds the one box (lo, hi) the
    optimizer searches; a second box is refused at construction.
    """

    name: str
    bounds: tuple[tuple[float, float], ...]
    partition: CellPartition
    cell_fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if len(self.bounds) != 1 or self.partition.m < 3:
            raise InvalidInput(f"a family has one parameter and at least 3 cells, got the "
                               f"boxes {self.bounds!r} on {self.partition.m} cells")
        lo, hi = self.bounds[0]
        if not lo < hi:
            raise InvalidInput(f"the box must satisfy lo < hi, got {self.bounds[0]!r}")

    @property
    def k(self) -> int:
        return len(self.bounds)

    def theta_array(self, theta) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(theta, dtype=float))
        if arr.shape != (self.k,):
            raise InvalidInput(f"theta must have shape ({self.k},), got {arr.shape}")
        return arr

    def cell_prob(self, theta) -> np.ndarray:
        """Cell probabilities at ``theta``, one parameter vector of shape
        (k,) or a block of R of them of shape (R, k): one validated kernel
        call, giving a simplex point per parameter vector, shape (m,) or
        (R, m)."""
        arr = np.asarray(theta, dtype=float)
        rows = arr if arr.ndim == 2 else self.theta_array(arr)[None, :]
        if rows.shape[1] != self.k:
            raise InvalidInput(f"theta must have shape (R, {self.k}), got {arr.shape}")
        q = _as_prob_rows(self.cell_fn(rows))
        return q if arr.ndim == 2 else q[0]


def _integer_edges(part: CellPartition, support_start: int) -> np.ndarray:
    """Edges e_0 <= ... <= e_{m-1} (as floats): interior cell i covers the
    support integers [e_i, e_{i+1}); the last cell is [e_{m-1}, inf)."""
    return np.maximum(np.ceil(np.asarray(part.cuts[:-1])), float(support_start))


def _residual_last(probs: np.ndarray) -> np.ndarray:
    np.maximum(_ONE - np.add.reduce(probs[:, :-1], axis=1), _ZERO, out=probs[:, -1])
    return probs


def _poisson_kernel(part: CellPartition) -> Callable[[np.ndarray], np.ndarray]:
    """Batched Poisson kernel on {0, 1, 2, ...}: (B, 1) rates -> (B, m)."""
    edges = _integer_edges(part, 0)
    top = edges[-1]

    def terms(n: int) -> tuple[int, np.ndarray, np.ndarray]:
        """A sum over n pmf terms: n, the divisors 1..n-1 of the pmf
        recursion and the edges as indices of the cumulative sums."""
        return n, np.arange(1.0, n), np.minimum(edges, n).astype(np.intp)

    # lam + 12 sqrt(lam) + 40 >= 40 for every rate, so on cuts whose top edge
    # is at most 40 the sum always stops there and its terms are built once
    fixed = terms(int(top)) if top <= 40.0 else None

    def cell_fn(theta: np.ndarray) -> np.ndarray:
        lam = theta[:, :1]
        if fixed is None:
            lam_max = float(lam.max())
            n, divisors, at_edges = terms(
                int(min(top, math.floor(lam_max + 12.0 * math.sqrt(lam_max) + 40.0))))
        else:
            n, divisors, at_edges = fixed
        # csum[:, x] = cdf(x - 1): pmf terms in columns 1..n, summed in place
        csum = np.zeros((lam.shape[0], n + 1))
        base = np.exp(-lam)
        csum[:, 1:2] = base
        # the ufunc methods are np.cumprod and np.cumsum without their wrappers
        np.multiply(base, np.multiply.accumulate(lam / divisors, axis=1), out=csum[:, 2:])
        np.add.accumulate(csum[:, 1:], axis=1, out=csum[:, 1:])
        # take, unlike fancy indexing, returns C-ordered rows, so each row sum
        # below is bit-identical to that of a batch of one
        at = csum.take(at_edges, axis=1)
        probs = np.empty_like(at)
        np.subtract(at[:, 1:], at[:, :-1], out=probs[:, :-1])
        return _residual_last(probs)

    return cell_fn


def _geometric_kernel(part: CellPartition) -> Callable[[np.ndarray], np.ndarray]:
    """Batched geometric kernel on {1, 2, ...}: (B, 1) success
    probabilities -> (B, m); the cell [0, 1) carries no mass."""
    edges = _integer_edges(part, 1)
    start, width = edges[:-1] - 1.0, np.diff(edges)

    def cell_fn(theta: np.ndarray) -> np.ndarray:
        log_q = np.log1p(-theta[:, :1])
        probs = np.empty((theta.shape[0], part.m))
        # 0 - expm1 keeps empty cells at +0.0
        np.multiply(np.exp(start * log_q), _ZERO - np.expm1(width * log_q), out=probs[:, :-1])
        return _residual_last(probs)

    return cell_fn


def poisson_model(part: CellPartition | None = None) -> DiscreteModel:
    part = part or default_partition()
    return DiscreteModel(name="poisson", bounds=(POISSON_BOUNDS,),
                         partition=part, cell_fn=_poisson_kernel(part))


def geometric_model(part: CellPartition | None = None) -> DiscreteModel:
    part = part or default_partition()
    return DiscreteModel(name="geometric", bounds=(GEOMETRIC_BOUNDS,),
                         partition=part, cell_fn=_geometric_kernel(part))


MODEL_BUILDERS: dict[str, Callable[[CellPartition | None], DiscreteModel]] = {
    "poisson": poisson_model,
    "geometric": geometric_model,
}


def model_by_name(name: str, part: CellPartition | None = None) -> DiscreteModel:
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise InvalidInput(
            f"unknown model {name!r}; known models: {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder(part)


def _is_mixing_weight(value) -> bool:
    """Whether ``value`` is a real number, not a bool, in [0, 1]."""
    return _is_real(value) and 0.0 <= value <= 1.0


@dataclass(frozen=True)
class MixtureDGP:
    """Two-component data generator: Poisson(rate) with weight ``pi``,
    geometric(success) with weight 1 - ``pi``.  The one place that checks a
    mixture: ``pi`` in [0, 1], a finite rate > 0 and a success probability
    in (0, 1), each a real number other than a bool."""

    pi: float
    poisson_rate: float = 4.0
    geometric_p: float = 0.2

    def __post_init__(self):
        if not _is_mixing_weight(self.pi):
            raise InvalidParameter(f"mixing weight must be in [0,1], got {self.pi!r}")
        if not (_is_real(self.poisson_rate) and 0.0 < self.poisson_rate < math.inf):
            raise InvalidParameter(f"poisson rate must be finite and > 0, "
                                   f"got {self.poisson_rate!r}")
        if not (_is_real(self.geometric_p) and 0.0 < self.geometric_p < 1.0):
            raise InvalidParameter(f"geometric success probability must be in (0,1), "
                                   f"got {self.geometric_p!r}")


def sample_mixture(dgp: MixtureDGP, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent observations from the mixture.

    Deterministic for a given generator state; each draw comes from the
    Poisson component with probability ``dgp.pi``.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    take_first = rng.random(n) < dgp.pi
    first = rng.poisson(dgp.poisson_rate, n)
    second = rng.geometric(dgp.geometric_p, n)
    return np.where(take_first, first, second)


def mixture_cell_probs(pi: float, part: CellPartition,
                       poisson_rate: float = 4.0,
                       geometric_p: float = 0.2) -> np.ndarray:
    """Exact cell probabilities of the mixture (no sampling): the families'
    own cells at the component parameters, weighted by ``pi`` and 1 - ``pi``."""
    dgp = MixtureDGP(pi=pi, poisson_rate=poisson_rate, geometric_p=geometric_p)
    mix = (dgp.pi * poisson_model(part).cell_prob(dgp.poisson_rate)
           + (1.0 - dgp.pi) * geometric_model(part).cell_prob(dgp.geometric_p))
    return as_prob_vector(mix)
