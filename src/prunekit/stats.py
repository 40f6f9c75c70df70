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

This module also states the engine's two input rules, which every public
function of the engine applies to its own arguments: ``_matrix`` (an array
is a finite 2-D float64 matrix of the expected width, else
``DimensionMismatch`` or ``NonFiniteInput``) and ``_check_stats`` (an
accumulator has the expected width and enough rows).
"""

from __future__ import annotations

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


def stats_init(m: int) -> ColumnStats:
    """Fresh accumulator for m input features."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidDimension(f"feature dimension must be a positive integer, got {m!r}")
    zeros = np.zeros(int(m), dtype=np.float64)
    return ColumnStats(n=0, mean=zeros.copy(), m2=zeros.copy(), sumsq=zeros.copy())


def _matrix(x, what: str, width: int | None = None) -> np.ndarray:
    """The engine's input rule: ``x`` as a finite 2-D float64 array, with
    ``width`` columns when given. ``what`` names the array in errors."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"{what} must be 2-D, got {x.ndim}-D")
    if width is not None and x.shape[1] != width:
        raise DimensionMismatch(f"{what} width {x.shape[1]} != expected {width}")
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{what} contains NaN/Inf")
    return x


def _check_stats(stats: ColumnStats, m: int, min_rows: int) -> None:
    """``stats`` covers ``m`` features and holds at least ``min_rows`` rows."""
    if stats.m != m:
        raise DimensionMismatch(f"stats width {stats.m} != weight rows {m}")
    if stats.n == 0:
        raise EmptyStats("no calibration rows accumulated")
    if stats.n < min_rows:
        raise InsufficientSamples(
            f"criterion needs >= {min_rows} calibration rows, got {stats.n}")


def _summarize(rows: np.ndarray) -> ColumnStats:
    """Two-pass statistics of one batch, reusing a single row-sized temporary."""
    n = rows.shape[0]
    mean = rows.sum(axis=0) / max(n, 1)
    tmp = np.multiply(rows, rows)
    sumsq = tmp.sum(axis=0)
    np.subtract(rows, mean, out=tmp)
    tmp *= tmp
    return ColumnStats(n=n, mean=mean, m2=tmp.sum(axis=0), sumsq=sumsq)


def stats_update(stats: ColumnStats, rows: np.ndarray) -> ColumnStats:
    """Fold a batch of calibration rows into the accumulator.

    Returns a new ColumnStats; the input is not mutated. An empty batch is
    an identity. Finite rows whose moments overflow float64 (|x| above
    about 1.3e154 squares to inf) raise ``NonFiniteInput`` from the merge.
    """
    rows = _matrix(rows, "batch", stats.m)
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
