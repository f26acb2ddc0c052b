"""Parametric cell-probability models and the mixture data generator.

A model maps parameters to the probabilities of the partition cells through
one array kernel, built once per partition from its integer cell edges:
interior cell i covers the integers [e_i, e_{i+1}) of the family's
support, where e_i is the cut ceil(cuts[i]) raised to the support's first
point.  Every family follows one kernel contract: ``kernel(theta, out)``
writes the m - 1 interior cell probabilities of the (B, 1) parameters
``theta`` into the (B, m - 1) array ``out``, in place and without
validation.  They may depend on ``theta`` alone, since fits keep a
kernel's cells at its start grid.  The last cell absorbs the residual
1 - sum(interior), which the caller completes (``_residual_last``), so
each row is normalized exactly rather than by truncated summation; a fit
completes it once for the rows of all its models.  The derivative rule
``dkernel(theta, out)`` writes the exact dC/dtheta of all m cells into the
(B, m) array ``out``, each row from its own parameter alone: with D(e) the
derivative of the tail P(X >= e), cell [a, b) gets D(a) - D(b) and the
last cell D(e_{m-1}) (``_tail_differences``), which keeps digits that
minus the sum of the others would round away.  ``DiscreteModel.cell_fn``
is the kernel's allocating (B, m) call, its last cell completed.

* Poisson: the cumulative pmf, pmf(0) = exp(-lam) and
  pmf(x) = pmf(x-1) * lam / x by cumulative product, differenced at the
  edges.  The sum stops at T = min(e_{m-1}, floor(lam + 12 sqrt(lam) + 40))
  with lam the largest rate of the batch.  The divisors and edge indices
  of each T are built once per partition.  T = e_{m-1} whenever
  e_{m-1} <= 40, as on the default cells; there the kernel never reads the
  largest rate.  The Poisson mass beyond T is below 3e-34 for every rate
  up to 1e4, far below half an ulp of the running cdf, which is within
  rounding of 1 there; adding those terms would not change one bit of the
  sums, so the truncation is exact, and the cost no longer grows with the
  largest cut.  D(e) = pmf(e-1) from the same terms, read as zero beyond
  the rate's own truncation point, not the batch's: unlike the cdf, a term
  is not absorbed near 1, yet the dropped terms are below 3e-34.
* Geometric on {1, 2, ...}: cell [a, b) in closed form,
  (1-p)^(a-1) (1 - (1-p)^(b-a)) evaluated as
  exp((a-1) log1p(-p)) * -expm1((b-a) log1p(-p)), which keeps full relative
  accuracy where (1-p)**k would amplify the rounding of 1-p.  The tail is
  S(e) = (1-p)^(e-1), so D(e) = -(e-1) exp((e-2) log1p(-p)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cells import (CellPartition, _as_prob_rows, _is_real, _is_whole, _numbers,
                    default_partition)
from .errors import InvalidInput, InvalidParameter

POISSON_BOUNDS = (1e-6, 50.0)
GEOMETRIC_BOUNDS = (1e-6, 1.0 - 1e-6)
POISSON_RATE = 4.0
GEOMETRIC_P = 0.2
MIN_CELLS = 3  # the fewest cells of a family, which leave m - 2 >= 1 degrees of freedom
# 0-d arrays: as ufunc operands they skip the conversion a Python float
# needs, which is a measurable share of a kernel call on a few rows
_ZERO, _ONE = np.zeros(()), np.ones(())
# kernel(theta, out) and dkernel(theta, out), see the module docstring
Kernel = Callable[[np.ndarray, np.ndarray], None]


@dataclass(frozen=True)
class DiscreteModel:
    """A named one-parameter family of cell-probability vectors on a
    partition of at least ``MIN_CELLS`` cells.

    ``kernel(theta, out)`` writes the interior cell probabilities of the
    (B, 1) parameters ``theta`` into the (B, m - 1) array ``out``, and
    ``dkernel(theta, out)`` the derivatives of all m cells into a (B, m)
    one (see the module docstring); ``cell_fn`` is the kernel's allocating
    call, and ``cell_prob`` the validated cell call.
    ``bounds`` holds the one box (lo, hi) the optimizer searches; a second
    box is refused at construction.  A box narrower than about 1e-7 of its
    magnitude is too narrow for its fit's bracket to close: such a fit
    reports ``converged=False``.
    """

    name: str
    bounds: tuple[tuple[float, float], ...]
    partition: CellPartition
    kernel: Kernel
    dkernel: Kernel

    def __post_init__(self):
        if len(self.bounds) != 1 or self.partition.m < MIN_CELLS:
            raise InvalidInput(f"a family has one parameter and at least {MIN_CELLS} cells, "
                               f"got the boxes {self.bounds!r} on {self.partition.m} cells")
        lo, hi = self.bounds[0]
        if not lo < hi:
            raise InvalidInput(f"the box must satisfy lo < hi, got {self.bounds[0]!r}")

    def theta_array(self, theta) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(_numbers(theta, "theta"), dtype=float))
        if arr.shape != (1,):
            raise InvalidInput(f"theta must have shape (1,), got {arr.shape}")
        return arr

    def cell_fn(self, theta: np.ndarray) -> np.ndarray:
        """(B, 1) parameters -> their (B, m) cell probabilities, without
        validation."""
        probs = np.empty((theta.shape[0], self.partition.m))
        self.kernel(theta, probs[:, :-1])
        _residual_last(probs[:, :-1], probs[:, -1])
        return probs

    def cell_prob(self, theta) -> np.ndarray:
        """Cell probabilities at ``theta``, one parameter of shape (1,) or a
        block of R of them of shape (R, 1): one validated kernel call, giving
        a simplex point per parameter, shape (m,) or (R, m).  Cells that are
        not one raise InvalidParameter naming theta."""
        arr = np.asarray(_numbers(theta, "theta"), dtype=float)
        rows = arr if arr.ndim == 2 else self.theta_array(arr)[None, :]
        if rows.shape[1] != 1:
            raise InvalidInput(f"theta must have shape (R, 1), got {arr.shape}")
        with np.errstate(all="ignore"):
            q = self.cell_fn(rows)
        try:
            q = _as_prob_rows(q)
        except InvalidInput as exc:
            raise InvalidParameter(f"{self.name} at theta={arr.tolist()}: {exc}") from None
        return q if arr.ndim == 2 else q[0]


def _integer_edges(part: CellPartition, support_start: int) -> np.ndarray:
    """Edges e_0 <= ... <= e_{m-1} (as floats): interior cell i covers the
    support integers [e_i, e_{i+1}); the last cell is [e_{m-1}, inf)."""
    return np.maximum(np.ceil(np.asarray(part.cuts[:-1])), float(support_start))


def _tail_differences(tails: np.ndarray, out: np.ndarray) -> None:
    """Write the (B, m) cell derivatives D(e_i) - D(e_{i+1}), with D(e_m) = 0
    for the last cell, of the (B, m) tail derivatives D at the edges."""
    np.subtract(tails[:, :-1], tails[:, 1:], out=out[:, :-1])
    out[:, -1] = tails[:, -1]


def _poisson_reach(lam):
    """floor(lam + 12 sqrt(lam) + 40), the support point where a rate's pmf
    terms stop (see the module docstring), elementwise."""
    return np.floor(lam + 12.0 * np.sqrt(lam) + 40.0)


def _residual_last(interior: np.ndarray, last: np.ndarray) -> None:
    """Write 1 - sum(interior) of each row, floored at 0, into ``last``: the
    (B, m - 1) interior cells and the (B,) last cell of (B, m) rows."""
    np.maximum(_ONE - np.add.reduce(interior, axis=1), _ZERO, out=last)


# One kernel pair per partition and family, so that the models a study builds
# per config are equal and share their kernel's terms and their start cells.
@functools.lru_cache(maxsize=32)
def _poisson_kernels(part: CellPartition) -> tuple[Kernel, Kernel]:
    """Batched Poisson kernel and derivative rule on {0, 1, 2, ...}: (B, 1)
    rates -> the (B, m - 1) interior cells and their d/dlam."""
    edges = _integer_edges(part, 0)
    top = edges[-1]

    # a fit's rates stay in the box, so its lengths are at most 174
    @functools.lru_cache(maxsize=256)
    def terms(n: int) -> tuple[int, np.ndarray, np.ndarray | None]:
        """A sum over n pmf terms: n, the divisors 1..n-1 of the pmf
        recursion and the edges as indices of the cumulative sums, None
        when they are 0..n, the cumulative sums themselves."""
        at_edges = np.minimum(edges, n).astype(np.intp)
        identity = np.array_equal(at_edges, np.arange(n + 1))
        return n, np.arange(1.0, n), None if identity else at_edges

    # lam + 12 sqrt(lam) + 40 >= 40 for every rate, so on cuts whose top edge
    # is at most 40 the sum always stops there
    fixed = terms(int(top)) if top <= 40.0 else None

    def pmf_terms(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The (B, n + 1) array whose column x + 1 holds pmf(x), column 0
        zero, and the edge indices of ``terms``."""
        if fixed is None:
            n, divisors, at_edges = terms(
                int(min(top, _poisson_reach(float(np.maximum.reduce(lam, axis=None))))))
        else:
            n, divisors, at_edges = fixed
        pmf = np.zeros((lam.shape[0], n + 1))
        base = np.exp(-lam)
        pmf[:, 1:2] = base
        # the ufunc methods are np.cumprod and np.cumsum without their wrappers
        np.multiply(base, np.multiply.accumulate(lam / divisors, axis=1), out=pmf[:, 2:])
        return pmf, at_edges

    def kernel(lam: np.ndarray, out: np.ndarray) -> None:
        # csum[:, x] = cdf(x - 1): the pmf terms summed in place
        csum, at_edges = pmf_terms(lam)
        np.add.accumulate(csum[:, 1:], axis=1, out=csum[:, 1:])
        at = csum if at_edges is None else csum.take(at_edges, axis=1)
        np.subtract(at[:, 1:], at[:, :-1], out=out)

    def dkernel(lam: np.ndarray, out: np.ndarray) -> None:
        # D(e) = pmf(e - 1), zero beyond the rate's own truncation point
        pmf, at_edges = pmf_terms(lam)
        at = pmf if at_edges is None else pmf.take(at_edges, axis=1)
        _tail_differences(np.where(edges <= _poisson_reach(lam), at, _ZERO), out)

    return kernel, dkernel


@functools.lru_cache(maxsize=32)
def _geometric_kernels(part: CellPartition) -> tuple[Kernel, Kernel]:
    """Batched geometric kernel and derivative rule on {1, 2, ...}: (B, 1)
    success probabilities -> the (B, m - 1) interior cells and their d/dp;
    the cell [0, 1) carries no mass."""
    edges = _integer_edges(part, 1)
    start, width = edges[:-1] - 1.0, np.diff(edges)
    # D(e) = -(e - 1) exp((e - 2) log1p(-p)); 0 at e = 1, where S(e) = 1
    tail_factor, tail_power = 1.0 - edges, edges - 2.0

    def kernel(theta: np.ndarray, out: np.ndarray) -> None:
        log_q = np.log1p(-theta)
        # 0 - expm1 keeps empty cells at +0.0
        np.multiply(np.exp(start * log_q), _ZERO - np.expm1(width * log_q), out=out)

    def dkernel(theta: np.ndarray, out: np.ndarray) -> None:
        _tail_differences(tail_factor * np.exp(tail_power * np.log1p(-theta)), out)

    return kernel, dkernel


def poisson_model(part: CellPartition | None = None) -> DiscreteModel:
    part = part or default_partition()
    kernel, dkernel = _poisson_kernels(part)
    return DiscreteModel(name="poisson", bounds=(POISSON_BOUNDS,),
                         partition=part, kernel=kernel, dkernel=dkernel)


def geometric_model(part: CellPartition | None = None) -> DiscreteModel:
    part = part or default_partition()
    kernel, dkernel = _geometric_kernels(part)
    return DiscreteModel(name="geometric", bounds=(GEOMETRIC_BOUNDS,),
                         partition=part, kernel=kernel, dkernel=dkernel)


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
    """Two-component data generator: Poisson(POISSON_RATE) with weight
    ``pi``, geometric(GEOMETRIC_P) with weight 1 - ``pi``; ``pi`` must be a
    real number other than a bool in [0, 1]."""

    pi: float

    def __post_init__(self):
        if not _is_mixing_weight(self.pi):
            raise InvalidParameter(f"mixing weight must be in [0,1], got {self.pi!r}")


def sample_mixture(dgp: MixtureDGP, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent observations from the mixture.

    Deterministic for a given generator state; each draw comes from the
    Poisson component with probability ``dgp.pi``.
    """
    if not _is_whole(n, 1):
        raise InvalidInput(f"n must be an integer >= 1, got {n!r}")
    take_first = rng.random(n) < dgp.pi
    first = rng.poisson(POISSON_RATE, n)
    second = rng.geometric(GEOMETRIC_P, n)
    return np.where(take_first, first, second)


def _mixture_rows(pis, part: CellPartition) -> np.ndarray:
    """The (R, m) cells of ``mixture_cell_probs`` at R unchecked weights."""
    pis = np.asarray(pis)[:, None]
    return (pis * poisson_model(part).cell_prob(POISSON_RATE)
            + (1.0 - pis) * geometric_model(part).cell_prob(GEOMETRIC_P))


def mixture_cell_probs(pi: float, part: CellPartition) -> np.ndarray:
    """Exact cell probabilities of the mixture (no sampling): the families'
    validated cells at the component parameters, weighted by ``pi`` and 1 - ``pi``."""
    return _mixture_rows([MixtureDGP(pi=pi).pi], part)[0]
