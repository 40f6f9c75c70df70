"""Closed-form bias compensation for pruned weights.

Removing weight W[j, m] shifts output m by -mean_j * W[j, m] on average over
the calibration rows. For any set S of weights pruned from column m, the
output change is sum_{j in S} x_j W[j, m] less the bias change, and the
constant minimizing its mean square is its mean. So the summed shifts,
b_m + sum_{j in S} mean_j W[j, m], are exactly the least-squares bias on the
statistics rows for every mask, not only for a single pruned weight. Which
set S to prune is the ranking criteria's question, not this module's.
"""

from __future__ import annotations

import math

import numpy as np

from .container import WeightLayer
from .errors import NonFiniteInput, ShapeMismatch
from .masks import _layer_mask
from .stats import _BLOCK_ROWS, ColumnStats, _check_stats, _continued


def bias_update(layer: WeightLayer, mask: np.ndarray, stats: ColumnStats) -> WeightLayer:
    """Return the layer with its bias compensated for the masked weights.

    Uses the pre-prune weight values; weights are not modified here. A
    layer without a bias gets the compensation as its bias, zeros included
    (README's "Container format"). Finite inputs whose bias overflows
    float64 raise ``NonFiniteInput``.
    """
    mask = _layer_mask(layer, mask)
    _check_stats(stats, layer.m, min_rows=1)
    # An overflow leaves a non-finite bias, which WeightLayer rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        delta = _pruned_shift(mask, stats.mean, layer.weights)
        if layer.bias is None:
            return WeightLayer(layer.weights, delta, layer.centered)
        # Leave untouched columns bit-identical (avoids -0.0 + 0.0 flips).
        bias = np.where(delta != 0.0, layer.bias + delta, layer.bias)
    return WeightLayer(layer.weights, bias, layer.centered)


def _pruned_shift(mask: np.ndarray, mean: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``((mask * mean[:, None]) * weights).sum(axis=0)`` with the bits of
    that whole expression, formed ``_BLOCK_ROWS`` rows at a time.

    Mask the means, not the products: a kept weight's overflowing product
    would be 0 * inf = NaN, while 0 * mean * w is a signed zero. Each later
    block continues the column sums as ``stats._continued`` does, which is
    numpy's own order for a C-contiguous product of two or more columns. A
    single column is summed pairwise, and another layout may be too, so
    those are summed whole.
    """
    m, h = weights.shape
    contiguous = mask.flags.c_contiguous and weights.flags.c_contiguous
    if m <= _BLOCK_ROWS or h < 2 or not contiguous:
        return ((mask * mean[:, None]) * weights).sum(axis=0)
    buf = np.empty((_BLOCK_ROWS + 1, h))
    for i in range(0, m, _BLOCK_ROWS):
        k = min(_BLOCK_ROWS, m - i)
        block = buf[1 : k + 1]
        np.multiply(mask[i : i + k], mean[i : i + k, None], out=block)
        block *= weights[i : i + k]
        total = block.sum(axis=0) if i == 0 else _continued(buf, total, k)
    return total


def _bias_change(before: WeightLayer, after: WeightLayer) -> np.ndarray:
    """``after``'s bias less ``before``'s in float64, a missing bias counted as
    zero; ``ShapeMismatch`` when their output widths differ."""
    if before.h != after.h:
        raise ShapeMismatch(f"output dims differ: {before.h} != {after.h}")
    b0 = before.bias if before.bias is not None else np.zeros(before.h)
    b1 = after.bias if after.bias is not None else np.zeros(after.h)
    return np.subtract(b1, b0, dtype=np.float64)


def bias_delta_norm(before: WeightLayer, after: WeightLayer) -> float:
    """Sum of absolute per-output bias changes; missing biases count as zero.

    Finite biases whose change sums past float64 raise ``NonFiniteInput``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(_bias_change(before, after)).sum())
    if not math.isfinite(norm):
        raise NonFiniteInput("bias change overflows float64")
    return norm
