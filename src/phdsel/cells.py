"""Cell partitions of the nonnegative half-line and binned samples.

Cells are the half-open intervals [cuts[i-1], cuts[i]) with cuts[0] = 0 and
cuts[-1] = +inf, so every nonnegative observation lands in exactly one cell
and values at or beyond the last finite cut go to the last cell.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

SIMPLEX_ATOL = 1e-12


def _numbers(value, name: str) -> np.ndarray:
    """``value`` as an array of integers or floats: strings, bools, complex
    numbers, ragged sequences and what numpy holds as objects (None,
    integers beyond 64 bits) raise InvalidInput naming the input ``name``,
    rather than being converted."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # numpy refuses a ragged sequence
        raise InvalidInput(f"{name} must be integers or floats, got a ragged sequence") from exc
    if arr.dtype.kind not in "iuf":
        raise InvalidInput(f"{name} must be integers or floats, got dtype {arr.dtype}")
    return arr


def as_prob_vector(p) -> np.ndarray:
    """Validate and return ``p`` as a probability vector.

    Entries must be finite and nonnegative and sum to one within
    ``SIMPLEX_ATOL``.
    """
    arr = np.asarray(_numbers(p, "probability vector"), dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidInput("probability vector must be 1-D with at least 2 cells")
    return _as_prob_rows(arr[None, :])[0]


def _as_prob_rows(arr: np.ndarray) -> np.ndarray:
    """The (R, m) float array ``arr``, whose every row must be a probability
    vector as ``as_prob_vector`` defines it; each row sum runs along the
    cell axis, as in a batch of one."""
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("probability vector has non-finite entries")
    if np.any(arr < 0.0):
        raise InvalidInput("probability vector has negative entries")
    sums = np.add.reduce(arr, axis=-1)
    off = np.abs(sums - 1.0) > SIMPLEX_ATOL
    if off.any():
        raise InvalidInput(f"probability vector sums to {sums[off][0]!r}, not 1")
    return arr


def _is_real(value) -> bool:
    """Whether ``value`` is a real number other than a bool; float and int skip the ABC check."""
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, finite as a double."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond a double
        return False


def _is_whole(value, minimum: int) -> bool:
    """Whether ``value`` is an integer, not a bool, finite as a double, >= ``minimum``."""
    return ((type(value) is int or isinstance(value, numbers.Integral))
            and _is_finite_real(value) and value >= minimum)


def _is_open_unit(value) -> bool:
    """Whether ``value`` is a real number, not a bool, strictly inside (0, 1)."""
    return _is_real(value) and 0.0 < value < 1.0


def _is_test_level(value) -> bool:
    """Whether ``value`` is in (0, 1) and above 2**-53, so that 1 - value / 2 < 1."""
    return _is_open_unit(value) and 1.0 - value / 2.0 < 1.0


@dataclass(frozen=True, slots=True)
class CellPartition:
    """Ordered boundaries 0 = cuts[0] < cuts[1] < ... < cuts[m] = +inf.

    Each cut must be a real number, finite as a double, or +inf: a string
    or a bool is refused, not converted.
    """

    cuts: tuple[float, ...]

    def __post_init__(self):
        bad = [c for c in self.cuts if not (_is_finite_real(c) or _is_real(c) and c == math.inf)]
        if bad:
            raise InvalidInput(f"cuts must be numbers, finite as doubles or +inf, got {bad[0]!r}")
        cuts = tuple(float(c) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if len(cuts) < 3:
            raise InvalidInput("partition needs at least 2 cells")
        if cuts[0] != 0.0:
            raise InvalidInput("first cut must be 0")
        if not math.isinf(cuts[-1]):
            raise InvalidInput("last cut must be +inf")
        if not all(a < b for a, b in zip(cuts, cuts[1:])):
            raise InvalidInput("cuts must be strictly increasing")

    @property
    def m(self) -> int:
        """Number of cells."""
        return len(self.cuts) - 1

    def bin_indices(self, values) -> np.ndarray:
        """0-based cell index of each value; values >= last finite cut go to
        the last cell."""
        vals = np.asarray(values, dtype=float)
        return np.searchsorted(np.asarray(self.cuts[1:-1]), vals, side="right")

    def bin_counts(self, samples) -> np.ndarray:
        """The (R, m) cell counts of R unchecked 1-D samples of any lengths: one
        search for the cells of all values, one count of them offset by m * row."""
        rows = np.repeat(np.arange(0, len(samples) * self.m, self.m), [s.size for s in samples])
        cells = self.bin_indices(np.concatenate(samples)) + rows
        return np.bincount(cells, minlength=len(samples) * self.m).reshape(-1, self.m)


def default_partition() -> CellPartition:
    """Eight cells: [0,1), [1,2), ..., [6,7) and [7, +inf).

    Partitions are immutable, so every call returns the same instance.
    """
    return _DEFAULT_PARTITION


_DEFAULT_PARTITION = CellPartition(cuts=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, math.inf))


def parse_cuts(text: str) -> CellPartition:
    """Build a partition from comma-separated finite cuts, e.g. ``"1,2,3"``
    means cuts (0, 1, 2, 3, +inf).

    Repeated texts return the same immutable partition, so callers that
    build one study config per block from the same cuts hold one partition.
    A ``text`` that is not a string raises InvalidInput naming ``cuts``.
    """
    if not isinstance(text, str):
        raise InvalidInput(f"cuts must be a comma-separated string, got {text!r}")
    return _parse_cuts(text)


@functools.lru_cache(maxsize=32)
def _parse_cuts(text: str) -> CellPartition:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        interior = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidInput(f"unparseable cut list {text!r}") from exc
    if not interior:
        raise InvalidInput("cut list is empty")
    for tok, cut in zip(tokens, interior):
        if not math.isfinite(cut):
            raise InvalidInput(f"cut {tok!r} is not finite")
    return CellPartition(cuts=(0.0, *interior, math.inf))


@dataclass(frozen=True)
class BinnedSample:
    """Cell counts; ``n`` is their total, the sample size."""

    counts: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        counts = _numbers(self.counts, "counts")
        # refused before the int64 cast, which truncates 2.7 to 2 and fails on
        # NaN, inf and magnitudes of 2**63 or more
        if counts.dtype.kind == "f" and not np.all((np.abs(counts) < 2.0**63)
                                                   & (counts == np.trunc(counts))):
            raise InvalidInput("cell counts must be whole numbers below 2**63")
        counts = counts.astype(np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or counts.size < 2:
            raise InvalidInput("counts must be 1-D with at least 2 cells")
        if np.any(counts < 0):
            raise InvalidInput("negative cell count")
        n = sum(counts.tolist())  # Python ints: an int64 sum wraps at 2**63
        if n >= 2**63:
            raise InvalidInput(f"cell counts total {n}, which overflows int64 (2**63)")
        if n < 1:
            raise InvalidInput("sample size must be >= 1")
        object.__setattr__(self, "n", n)

    def frequencies(self) -> np.ndarray:
        return self.counts / self.n


def empirical_frequencies(data, part: CellPartition) -> tuple[BinnedSample, np.ndarray]:
    """Check and bin raw observations (``part.bin_counts`` on one sample);
    return the BinnedSample and its ``frequencies()``, not checked again."""
    values = np.asarray(_numbers(data, "data"), dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise InvalidInput("data must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise InvalidInput("data contains non-finite values")
    if np.any(values < 0.0):
        raise InvalidInput("data contains negative values")
    sample = BinnedSample(counts=part.bin_counts([values])[0])
    return sample, sample.frequencies()
