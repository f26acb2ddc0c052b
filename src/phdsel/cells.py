"""Cell partitions of the nonnegative half-line and binned samples.

Cells are the half-open intervals [cuts[i-1], cuts[i]) with cuts[0] = 0 and
cuts[-1] = +inf, so every nonnegative observation lands in exactly one cell
and values at or beyond the last finite cut go to the last cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

SIMPLEX_ATOL = 1e-12


def as_prob_vector(p) -> np.ndarray:
    """Validate and return ``p`` as a probability vector.

    Entries must be finite and nonnegative and sum to one within
    ``SIMPLEX_ATOL``.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidInput("probability vector must be 1-D with at least 2 cells")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("probability vector has non-finite entries")
    if np.any(arr < 0.0):
        raise InvalidInput("probability vector has negative entries")
    if abs(arr.sum() - 1.0) > SIMPLEX_ATOL:
        raise InvalidInput(f"probability vector sums to {arr.sum()!r}, not 1")
    return arr


@dataclass(frozen=True, slots=True)
class CellPartition:
    """Ordered boundaries 0 = cuts[0] < cuts[1] < ... < cuts[m] = +inf."""

    cuts: tuple[float, ...]

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if len(cuts) < 3:
            raise InvalidInput("partition needs at least 2 cells")
        if cuts[0] != 0.0:
            raise InvalidInput("first cut must be 0")
        if not math.isinf(cuts[-1]):
            raise InvalidInput("last cut must be +inf")
        # written so that a NaN cut, which compares False both ways, fails
        if not all(a < b for a, b in zip(cuts, cuts[1:])):
            raise InvalidInput("cuts must be strictly increasing")

    @property
    def m(self) -> int:
        """Number of cells."""
        return len(self.cuts) - 1

    @property
    def interior_cuts(self) -> np.ndarray:
        return np.asarray(self.cuts[1:-1], dtype=float)

    def bin_indices(self, values) -> np.ndarray:
        """0-based cell index of each value; values >= last finite cut go to
        the last cell."""
        vals = np.asarray(values, dtype=float)
        return np.searchsorted(self.interior_cuts, vals, side="right")


def default_partition() -> CellPartition:
    """Eight cells: [0,1), [1,2), ..., [6,7) and [7, +inf).

    Partitions are immutable, so every call returns the same instance.
    """
    return _DEFAULT_PARTITION


_DEFAULT_PARTITION = CellPartition(cuts=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, math.inf))


@functools.lru_cache(maxsize=32)
def parse_cuts(text: str) -> CellPartition:
    """Build a partition from comma-separated finite cuts, e.g. ``"1,2,3"``
    means cuts (0, 1, 2, 3, +inf).

    Repeated texts return the same immutable partition, so callers that
    build one study config per block from the same cuts hold one partition.
    """
    try:
        interior = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInput(f"unparseable cut list {text!r}") from exc
    if not interior:
        raise InvalidInput("cut list is empty")
    return CellPartition(cuts=(0.0, *interior, math.inf))


@dataclass(frozen=True)
class BinnedSample:
    """Cell counts; ``n`` is their total, the sample size."""

    counts: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or counts.size < 2:
            raise InvalidInput("counts must be 1-D with at least 2 cells")
        if np.any(counts < 0):
            raise InvalidInput("negative cell count")
        n = int(counts.sum())
        if n < 1:
            raise InvalidInput("sample size must be >= 1")
        object.__setattr__(self, "n", n)

    @property
    def m(self) -> int:
        return self.counts.size

    def frequencies(self) -> np.ndarray:
        return self.counts / self.n


def empirical_frequencies(data, part: CellPartition) -> tuple[BinnedSample, np.ndarray]:
    """Bin raw observations and return (counts, observed cell frequencies)."""
    values = np.asarray(data, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise InvalidInput("data must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise InvalidInput("data contains non-finite values")
    if np.any(values < 0.0):
        raise InvalidInput("data contains negative values")
    idx = part.bin_indices(values)
    counts = np.bincount(idx, minlength=part.m)
    sample = BinnedSample(counts=counts)
    return sample, as_prob_vector(sample.frequencies())
