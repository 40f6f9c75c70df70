"""Closed-form bias compensation for pruned weights.

Removing weight W[j, m] shifts output m by -mean_j * W[j, m] in expectation;
adding that amount back to the bias is the unique bias minimizing the
expected squared output change for a single pruned weight. Multiple pruned
weights are compensated by summing the per-weight shifts (mean-preserving by
linearity; the single-weight case is where optimality is exact).
"""

from __future__ import annotations

import numpy as np

from .container import WeightLayer
from .errors import EmptyStats, ShapeMismatch
from .stats import ColumnStats


def bias_update(layer: WeightLayer, mask: np.ndarray, stats: ColumnStats) -> WeightLayer:
    """Return the layer with its bias compensated for the masked weights.

    Uses the pre-prune weight values; weights are not modified here. When the
    layer has no bias and some compensation is non-zero, a bias vector is
    materialized (callers should surface that a parameter vector was added).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != layer.weights.shape:
        raise ShapeMismatch(f"mask shape {mask.shape} != weights shape "
                            f"{layer.weights.shape}")
    if stats.m != layer.m:
        raise ShapeMismatch(f"stats width {stats.m} != layer input dim {layer.m}")
    if stats.n == 0:
        raise EmptyStats("bias compensation needs at least one calibration row")
    delta = (mask * (stats.mean[:, None] * layer.weights)).sum(axis=0)
    if layer.bias is None:
        if not np.any(delta):
            return layer
        return WeightLayer(layer.weights, delta, layer.centered)
    # Leave untouched columns bit-identical (avoids -0.0 + 0.0 flips).
    bias = np.where(delta != 0.0, layer.bias + delta, layer.bias)
    return WeightLayer(layer.weights, bias, layer.centered)


def bias_delta_norm(before: WeightLayer, after: WeightLayer) -> float:
    """Sum of absolute per-output bias changes; missing biases count as zero."""
    if before.h != after.h:
        raise ShapeMismatch(f"output dims differ: {before.h} != {after.h}")
    b0 = before.bias if before.bias is not None else np.zeros(before.h)
    b1 = after.bias if after.bias is not None else np.zeros(after.h)
    return float(np.abs(b1 - b0).sum())
