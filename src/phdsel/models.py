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
  with lam the largest rate of the batch.  The Poisson mass beyond T is
  below 3e-34 for every rate up to 1e4, far below half an ulp of the running
  cdf, which is within rounding of 1 there; adding those terms would not
  change one bit of the sums, so the truncation is exact, and the cost no
  longer grows with the largest cut.
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

from .cells import CellPartition, as_prob_vector, default_partition
from .errors import InvalidInput, InvalidParameter

POISSON_BOUNDS = (1e-6, 50.0)
GEOMETRIC_BOUNDS = (1e-6, 1.0 - 1e-6)
# 0-d arrays: as ufunc operands they skip the conversion a Python float
# needs, which is a measurable share of a kernel call on a few rows
_ZERO, _ONE = np.zeros(()), np.ones(())


@dataclass(frozen=True)
class DiscreteModel:
    """A named parametric family of cell-probability vectors.

    ``cell_fn`` maps a (B, k) parameter array to the (B, m) cell
    probabilities of ``partition`` and does no validation; ``cell_prob`` is
    its validated batch of one.  ``bounds`` is the box the optimizer
    searches.
    """

    name: str
    bounds: tuple[tuple[float, float], ...]
    partition: CellPartition
    cell_fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.k >= self.partition.m - 1:
            raise InvalidInput(
                f"parameter dimension {self.k} must be < m-1 = {self.partition.m - 1}"
            )
        for lo, hi in self.bounds:
            if not lo < hi:
                raise InvalidInput("each bound must satisfy lo < hi")

    @property
    def k(self) -> int:
        return len(self.bounds)

    def theta_array(self, theta) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(theta, dtype=float))
        if arr.shape != (self.k,):
            raise InvalidInput(f"theta must have shape ({self.k},), got {arr.shape}")
        return arr

    def cell_prob(self, theta) -> np.ndarray:
        """Cell probabilities at ``theta``: the kernel's validated batch of
        one, a simplex point."""
        return as_prob_vector(self.cell_fn(self.theta_array(theta)[None, :])[0])


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

    def cell_fn(theta: np.ndarray) -> np.ndarray:
        lam = theta[:, :1]
        lam_max = float(lam.max())
        n = int(min(top, math.floor(lam_max + 12.0 * math.sqrt(lam_max) + 40.0)))
        # csum[:, x] = cdf(x - 1): pmf terms in columns 1..n, summed in place
        csum = np.zeros((lam.shape[0], n + 1))
        base = np.exp(-lam)
        csum[:, 1:2] = base
        # the ufunc methods are np.cumprod and np.cumsum without their wrappers
        np.multiply(base, np.multiply.accumulate(lam / np.arange(1.0, n), axis=1),
                    out=csum[:, 2:])
        np.add.accumulate(csum[:, 1:], axis=1, out=csum[:, 1:])
        # take, unlike fancy indexing, returns C-ordered rows, so each row sum
        # below is bit-identical to that of a batch of one
        at = np.take(csum, np.minimum(edges, n).astype(np.intp), axis=1)
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


def poisson_cell_probs(lam: float, part: CellPartition) -> np.ndarray:
    """Cell probabilities of a Poisson rate-``lam`` pmf on {0, 1, 2, ...}."""
    if not (np.isfinite(lam) and lam > 0.0):
        raise InvalidParameter(f"poisson rate must be > 0, got {lam!r}")
    return as_prob_vector(_poisson_kernel(part)(np.array([[float(lam)]]))[0])


def geometric_cell_probs(p: float, part: CellPartition) -> np.ndarray:
    """Cell probabilities of a geometric success-probability-``p`` pmf on
    {1, 2, ...}; the cell [0, 1) carries no mass."""
    if not (np.isfinite(p) and 0.0 < p < 1.0):
        raise InvalidParameter(f"geometric success probability must be in (0,1), got {p!r}")
    return as_prob_vector(_geometric_kernel(part)(np.array([[float(p)]]))[0])


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


@dataclass(frozen=True)
class MixtureDGP:
    """Two-component data generator: Poisson(rate) with weight ``pi``,
    geometric(success) with weight 1 - ``pi``."""

    pi: float
    poisson_rate: float = 4.0
    geometric_p: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.pi <= 1.0:
            raise InvalidParameter(f"mixing weight must be in [0,1], got {self.pi!r}")
        if self.poisson_rate <= 0.0:
            raise InvalidParameter("poisson rate must be > 0")
        if not 0.0 < self.geometric_p < 1.0:
            raise InvalidParameter("geometric success probability must be in (0,1)")


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
    """Exact cell probabilities of the mixture (no sampling)."""
    if not 0.0 <= pi <= 1.0:
        raise InvalidParameter(f"mixing weight must be in [0,1], got {pi!r}")
    mix = (pi * poisson_cell_probs(poisson_rate, part)
           + (1.0 - pi) * geometric_cell_probs(geometric_p, part))
    return as_prob_vector(mix)
