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
from .stats import ColumnStats, _check_stats


def bias_update(layer: WeightLayer, mask: np.ndarray, stats: ColumnStats) -> WeightLayer:
    """Return the layer with its bias compensated for the masked weights.

    Uses the pre-prune weight values; weights are not modified here. When the
    layer has no bias and some compensation is non-zero, a bias vector is
    materialized (callers should surface that a parameter vector was added).
    Finite inputs whose bias overflows float64 raise ``NonFiniteInput``.
    """
    mask = _layer_mask(layer, mask)
    _check_stats(stats, layer.m, min_rows=1)
    # An overflow leaves a non-finite bias, which WeightLayer rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        # Mask the means, not the products: a kept weight's overflowing
        # product would be 0 * inf = NaN, while 0 * mean * w is a signed zero.
        delta = ((mask * stats.mean[:, None]) * layer.weights).sum(axis=0)
        if layer.bias is None:
            if not np.any(delta):
                return layer
            return WeightLayer(layer.weights, delta, layer.centered)
        # Leave untouched columns bit-identical (avoids -0.0 + 0.0 flips).
        bias = np.where(delta != 0.0, layer.bias + delta, layer.bias)
    return WeightLayer(layer.weights, bias, layer.centered)


def bias_delta_norm(before: WeightLayer, after: WeightLayer) -> float:
    """Sum of absolute per-output bias changes; missing biases count as zero.

    Finite biases whose change sums past float64 raise ``NonFiniteInput``.
    """
    if before.h != after.h:
        raise ShapeMismatch(f"output dims differ: {before.h} != {after.h}")
    b0 = before.bias if before.bias is not None else np.zeros(before.h)
    b1 = after.bias if after.bias is not None else np.zeros(after.h)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(b1 - b0).sum())
    if not math.isfinite(norm):
        raise NonFiniteInput("bias change overflows float64")
    return norm
