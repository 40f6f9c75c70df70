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
because the activation-norm scores need ||X[:,j]||_2. For any partition of
a stream into batches the result matches a two-pass computation over the
concatenated rows to ~1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import TensorContainer
from .errors import (
    DimensionMismatch,
    EmptyStats,
    InvalidDimension,
    InvariantViolation,
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


def _check_batch(rows: np.ndarray, m: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DimensionMismatch(f"batch must be 2-D (rows x features), got {rows.ndim}-D")
    if rows.shape[1] != m:
        raise DimensionMismatch(f"batch width {rows.shape[1]} != accumulator width {m}")
    if rows.size and not np.isfinite(rows).all():
        raise NonFiniteInput("batch contains NaN/Inf")
    return rows


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
    an identity.
    """
    return stats_merge(stats, _summarize(_check_batch(rows, stats.m)))


def stats_merge(a: ColumnStats, b: ColumnStats) -> ColumnStats:
    """Combine two accumulators built on disjoint shards of one stream."""
    if a.m != b.m:
        raise DimensionMismatch(f"accumulator widths differ: {a.m} != {b.m}")
    n = a.n + b.n
    # max(n, 1) only matters when both sides are empty; the result stays zero.
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.n / max(n, 1))
    m2 = a.m2 + b.m2 + delta**2 * (a.n * b.n / max(n, 1))
    return ColumnStats(n=n, mean=mean, m2=m2, sumsq=a.sumsq + b.sumsq)


def stats_l2(stats: ColumnStats) -> np.ndarray:
    """Per-feature raw activation norm sqrt(sum_i x_ij^2)."""
    return np.sqrt(stats.sumsq)


def stats_centered_l2(stats: ColumnStats) -> np.ndarray:
    """Per-feature centered norm ||x_j - mean_j||_2 = sqrt(m2_j)."""
    if stats.n == 0:
        raise EmptyStats("no calibration rows accumulated")
    return np.sqrt(stats.m2)


# -- container serialization -------------------------------------------

def stats_to_container(container: TensorContainer, layer_name: str,
                       stats: ColumnStats) -> None:
    """Store an accumulator as "<layer>.stats.mean" etc. plus a scalar n.

    The centered moment is stored as the sample variance ("var"), the
    field existing containers carry. n is stored as float32, which holds
    every count up to 2**24 exactly; a larger n is refused.
    """
    if stats.n > 2**24:
        raise InvariantViolation(f"{layer_name!r}: row count {stats.n} exceeds "
                                 f"2**24, above which float32 skips counts")
    container.add(f"{layer_name}.stats.mean", stats.mean)
    container.add(f"{layer_name}.stats.var", stats.variance())
    container.add(f"{layer_name}.stats.sumsq", stats.sumsq)
    container.add(f"{layer_name}.stats.n", np.array([float(stats.n)]))


def stats_from_container(container: TensorContainer, layer_name: str) -> ColumnStats:
    mean = container.get(f"{layer_name}.stats.mean")
    var = container.get(f"{layer_name}.stats.var")
    sumsq = container.get(f"{layer_name}.stats.sumsq")
    n = int(container.get(f"{layer_name}.stats.n")[0])
    if not (mean.shape == var.shape == sumsq.shape):
        raise DimensionMismatch(
            f"stats vectors for {layer_name!r} have inconsistent shapes")
    return ColumnStats(n=n, mean=mean.copy(), m2=var * max(n - 1, 0),
                       sumsq=sumsq.copy())
