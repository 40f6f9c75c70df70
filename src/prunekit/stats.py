"""Per-input-feature streaming statistics over calibration batches.

Keeps count, mean, centered sum of squares ``m2`` = sum_i (x_ij - mean_j)^2
and raw sum of squares per feature, in float64. A batch is summarized
two-pass (mean first, then squared deviations from it), and summaries
combine with the pairwise rule of Chan, Golub & LeVeque (1979):

    delta = mean_b - mean_a
    mean  = mean_a + delta * n_b / n
    m2    = m2_a + m2_b + delta^2 * n_a * n_b / n

Nothing subtracts two large raw moments, so features whose offset dwarfs
their spread keep their variance. The raw sum of squares is tracked
because the activation-norm scores need ||X[:,j]||_2; the norms themselves
are the per-feature factors in ``criteria.CRITERION_RULES``. For any
partition of a stream into batches the result matches a two-pass
computation over the concatenated rows to ~1e-9 relative.

A batch of any dtype is widened to float64 and checked ``_BLOCK_ROWS`` rows
at a time, so it never exists as a whole float64 copy. Both passes (sum and
sum of squares, then m2 about the mean) run block by block. The first
block is summed as a whole batch is; each later block is summed below the
running sums in one (block + 1)-row buffer, which continues numpy's
row-by-row axis-0 reduction. So the result has the bits of summarizing the
widened batch at once whenever the batch is one block (any memory layout)
or C-contiguous with at least two columns. A one-column or non-C-contiguous
batch of several blocks may differ in its last bits, because numpy sums an
axis that is contiguous in memory pairwise.

This module also owns the engine's input rules, which every public function
of the engine applies to its own arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyStats,
    InsufficientSamples,
    InvalidDimension,
    NonFiniteInput,
)


@dataclass
class ColumnStats:
    """Running per-feature statistics over n calibration rows."""

    n: int
    mean: np.ndarray
    m2: np.ndarray
    sumsq: np.ndarray

    @property
    def m(self) -> int:
        return self.mean.shape[0]

    def variance(self) -> np.ndarray:
        """Sample variance m2 / (n-1); zero below two rows."""
        return self.m2 / (self.n - 1) if self.n > 1 else np.zeros_like(self.m2)


def _is_count(value, least: int = 0) -> bool:
    """The count rule: an int or numpy integer >= ``least``, never a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least)


def _is_buildable(shape, itemsize: int) -> bool:
    """numpy can build an array of ``shape`` (counts) and ``itemsize`` bytes:
    at most 64 dimensions (NPY_MAXDIMS), and the nonzero dimensions' byte
    count, which numpy checks even beside a zero one, fits its index type."""
    return (len(shape) <= 64
            and math.prod(int(d) for d in shape if d) * itemsize <= np.iinfo(np.intp).max)


def _is_fraction(value, high: float) -> bool:
    """The fraction rule: an int or float (numpy too) in [0, ``high``]; no bool or NaN."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and 0 <= value <= high)


def _width(m) -> int:
    """``m`` as a feature count: a positive integer, else ``InvalidDimension``."""
    if not _is_count(m, 1):
        raise InvalidDimension(f"feature dimension must be a positive integer, got {m!r}")
    return int(m)


def stats_init(m: int) -> ColumnStats:
    """Fresh accumulator for m input features."""
    zeros = np.zeros(_width(m), dtype=np.float64)
    return ColumnStats(n=0, mean=zeros.copy(), m2=zeros.copy(), sumsq=zeros.copy())


def _check_rows(shape: tuple[int, ...], what: str, width: int | None = None) -> None:
    """``shape`` is 2-D, with ``width`` columns when given; else
    ``DimensionMismatch``. ``what`` names the array in errors."""
    if len(shape) != 2:
        raise DimensionMismatch(f"{what} must be 2-D, got {len(shape)}-D")
    if width is not None and shape[1] != width:
        raise DimensionMismatch(f"{what} width {shape[1]} != expected {width}")


def _rows(x, what: str, width: int | None = None) -> np.ndarray:
    """The shape half of ``_matrix``: ``x`` as an array in its own dtype that
    passes ``_check_rows``; the values are not checked."""
    x = np.asarray(x)
    _check_rows(x.shape, what, width)
    return x


def _matrix(x, what: str, width: int | None = None) -> np.ndarray:
    """The engine's input rule: ``x`` as a finite 2-D float64 array, with
    ``width`` columns when given. ``what`` names the array in errors."""
    x = _rows(np.asarray(x, dtype=np.float64), what, width)
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{what} contains NaN/Inf")
    return x


def _check_stats(stats: ColumnStats | None, m: int, min_rows: int) -> None:
    """``stats`` covers ``m`` features and holds >= ``min_rows`` rows; None holds none."""
    if stats is not None and stats.m != m:
        raise DimensionMismatch(f"stats width {stats.m} != weight rows {m}")
    if stats is None or stats.n == 0:
        raise EmptyStats("no calibration rows accumulated")
    if stats.n < min_rows:
        raise InsufficientSamples(
            f"criterion needs >= {min_rows} calibration rows, got {stats.n}")


_BLOCK_ROWS = 256  # rows of a batch widened to float64 at a time


def _continued(buf: np.ndarray, acc: np.ndarray, k: int) -> np.ndarray:
    """Column sums of ``acc`` followed by the ``k`` rows below it in ``buf``:
    numpy's axis-0 reduction adds rows in order, so this continues it."""
    buf[0] = acc
    return buf[: k + 1].sum(axis=0)


def _summarize(rows: np.ndarray) -> ColumnStats:
    """Two-pass statistics of a batch from ``_rows``, widened and checked by
    ``_matrix`` one block at a time (module docstring)."""
    n, m = rows.shape
    head = _matrix(rows[:_BLOCK_ROWS], "batch")
    later = range(_BLOCK_ROWS, n, _BLOCK_ROWS)
    total = head.sum(axis=0)
    tmp = np.multiply(head, head)
    sumsq = tmp.sum(axis=0)
    if later:
        buf = np.empty((_BLOCK_ROWS + 1, m))
    for i in later:
        k = min(_BLOCK_ROWS, n - i)
        block = buf[1 : k + 1]
        block[...] = rows[i : i + k]  # widened into the buffer and checked there
        _matrix(block, "batch")
        total = _continued(buf, total, k)
        block *= block
        sumsq = _continued(buf, sumsq, k)
    mean = total / max(n, 1)
    np.subtract(head, mean, out=tmp)
    tmp *= tmp
    m2 = tmp.sum(axis=0)
    for i in later:
        k = min(_BLOCK_ROWS, n - i)
        dev = buf[1 : k + 1]
        dev[...] = rows[i : i + k]  # widened as in the first pass, whatever the dtype
        dev -= mean
        dev *= dev
        m2 = _continued(buf, m2, k)
    return ColumnStats(n=n, mean=mean, m2=m2, sumsq=sumsq)


def stats_update(stats: ColumnStats, rows: np.ndarray) -> ColumnStats:
    """Fold a batch of calibration rows into the accumulator.

    Returns a new ColumnStats; the input is not mutated. An empty batch is
    an identity. Finite rows whose moments overflow float64 (|x| above
    about 1.3e154 squares to inf) raise ``NonFiniteInput`` from the merge.
    """
    rows = _rows(rows, "batch", stats.m)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = _summarize(rows)
    return stats_merge(stats, batch)


def stats_merge(a: ColumnStats, b: ColumnStats) -> ColumnStats:
    """Combine two accumulators built on disjoint shards of one stream; a
    merged moment that overflows float64 raises ``NonFiniteInput``."""
    if a.m != b.m:
        raise DimensionMismatch(f"accumulator widths differ: {a.m} != {b.m}")
    n = a.n + b.n
    with np.errstate(over="ignore", invalid="ignore"):
        # max(n, 1) only matters when both sides are empty; the result stays zero.
        delta = b.mean - a.mean
        mean = a.mean + delta * (b.n / max(n, 1))
        m2 = a.m2 + b.m2
        if a.n and b.n:  # an empty side adds no cross term
            m2 += delta**2 * (a.n * b.n / n)
        out = ColumnStats(n=n, mean=mean, m2=m2, sumsq=a.sumsq + b.sumsq)
    if not np.isfinite(np.concatenate((out.mean, out.m2, out.sumsq))).all():
        raise NonFiniteInput("merged moments overflow float64")
    return out
