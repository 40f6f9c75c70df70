"""Prune-mask construction from score matrices.

The comparison group is one output column: within each column the lowest-k
scores are pruned (k = floor(p*M) for unstructured sparsity) or, for an n:m
structured pattern, the lowest n within every consecutive group of m entries
along the input axis. Ties break toward the lower input index, so masks
depend only on the score ranking and are deterministic: the mask is the
first k entries of a stable sort of each group.

No sort is made. The group size from ``_groups`` picks one of two
selections, both giving that mask exactly:

- groups of up to 16 entries (2:4, 4:8, 8:16, tiny layers) rank each entry
  by pairwise comparison (``_rank_select``) and prune ranks below k;
- larger groups find each group's k-th lowest score v with
  ``ndarray.partition`` and prune the scores ``<= v``; where ties at v
  would overfill a group, only its lowest-index scores equal to v that fit
  are pruned. Output columns are taken 64 at a time, so the partitioned
  copy holds 64 columns (1 MB at 2048 inputs) whatever the layer's width.

Scores obey the engine's input rule (``stats._matrix``: finite, 2-D) and are
never written to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import WeightLayer
from .errors import IndivisibleGroup, InvalidRatio, ShapeMismatch
from .stats import _is_count, _is_fraction, _matrix


@dataclass(frozen=True)
class SparsitySpec:
    """Target sparsity: an unstructured ratio or an n:m structured pattern."""

    ratio: float | None = None
    n: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        structured = self.n is not None or self.m is not None
        if structured == (self.ratio is not None):
            raise InvalidRatio("specify either a ratio or an n:m pattern, not both")
        if structured:
            if not (_is_count(self.n, 1) and _is_count(self.m) and self.n < self.m):
                raise InvalidRatio(f"structured pattern needs integers 0 < n < m, "
                                   f"got {self.n}:{self.m}")
        elif _is_fraction(self.ratio, 1.0):
            object.__setattr__(self, "ratio", float(self.ratio))
        else:
            raise InvalidRatio(f"ratio must lie in [0, 1], got {self.ratio!r}")

    @classmethod
    def parse(cls, text: str) -> "SparsitySpec":
        """Parse "0.5" as a ratio or "2:4" as a structured pattern."""
        text = text.strip()
        if ":" in text:
            left, _, right = text.partition(":")
            try:
                return cls(n=int(left), m=int(right))
            except ValueError as exc:
                raise InvalidRatio(f"bad structured pattern {text!r}") from exc
        try:
            return cls(ratio=float(text))
        except ValueError as exc:
            raise InvalidRatio(f"bad sparsity ratio {text!r}") from exc

    def __str__(self) -> str:
        return f"{self.ratio:g}" if self.ratio is not None else f"{self.n}:{self.m}"


def _groups(spec: SparsitySpec, m_in: int) -> tuple[int, int, int]:
    """(group count, group size, pruned per group) along the input axis.

    The one comparison-group rule: a ratio prunes floor(p*M) of the whole
    column, an n:m pattern prunes n of every consecutive m inputs.
    """
    if spec.ratio is not None:
        return 1, m_in, int(math.floor(spec.ratio * m_in))
    if m_in % spec.m != 0:
        raise IndivisibleGroup(f"input dimension {m_in} not divisible by "
                               f"group size {spec.m}")
    return m_in // spec.m, spec.m, spec.n


_RANK_MAX_GROUP = 16  # largest group ranked by pairwise comparison
_BLOCK = 64           # output columns per partitioned copy


def build_mask(scores: np.ndarray, spec: SparsitySpec) -> np.ndarray:
    """Boolean mask, True = pruned, lowest scores pruned per comparison group."""
    scores = _matrix(scores, "scores")
    m_in, h = scores.shape
    count, size, k = _groups(spec, m_in)
    mask = np.zeros(scores.shape, dtype=bool)
    if k:
        select = _rank_select if size <= _RANK_MAX_GROUP else _partition_select
        select(scores.reshape(count, size, h), k, mask.reshape(count, size, h))
    return mask


def _rank_select(grouped: np.ndarray, k: int, out: np.ndarray) -> None:
    """Prune into ``out`` each entry whose stable rank in its group is below k.

    One comparison per pair j < i: it adds one to i's rank when
    ``g[j] <= g[i]`` (j sorts first, ties going to the lower index) and one
    to j's rank otherwise.
    """
    size = grouped.shape[1]
    rank = np.zeros(grouped.shape, dtype=np.uint8)
    for i in range(1, size):
        for j in range(i):
            below = grouped[:, j] <= grouped[:, i]
            rank[:, i] += below
            rank[:, j] += ~below
    np.less(rank, k, out=out)


def _partition_select(grouped: np.ndarray, k: int, out: np.ndarray) -> None:
    """Prune into ``out`` each group's k lowest entries, found by partition."""
    for j in range(0, grouped.shape[2], _BLOCK):
        block = grouped[:, :, j:j + _BLOCK]
        # An explicit copy: ascontiguousarray returns a view of a one-column
        # block, and partitioning it would reorder the caller's scores.
        kth = block.transpose(2, 0, 1).copy()
        kth.partition(k - 1, axis=2)
        v = kth[:, :, k - 1].T[:, None, :]
        pruned = block <= v
        surplus = pruned.sum(axis=1, keepdims=True) - k
        if surplus.any():
            # Ties at v overfill the group: prune only the lowest-index ones.
            tied = block == v
            fits = tied.sum(axis=1, keepdims=True) - surplus
            pruned &= ~tied | (tied.cumsum(axis=1) <= fits)
        out[:, :, j:j + _BLOCK] = pruned


def mask_violation(mask: np.ndarray, spec: SparsitySpec) -> str | None:
    """Describe the first group violating the spec, or None if the mask is valid."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        return f"mask must be 2-D, got {mask.ndim}-D"
    m_in, h = mask.shape
    try:
        count, size, k = _groups(spec, m_in)
    except IndivisibleGroup as exc:
        return str(exc)
    counts = mask.reshape(count, size, h).sum(axis=1)
    bad = np.argwhere(counts != k)
    if bad.size:
        g, col = bad[0]
        return f"group {g} of column {col}: {counts[g, col]} pruned, expected {k}"
    return None


def _layer_mask(layer: WeightLayer, mask: np.ndarray) -> np.ndarray:
    """``mask`` as a bool array, which must have the layer's weight shape."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != layer.weights.shape:
        raise ShapeMismatch(f"mask shape {mask.shape} != weights shape "
                            f"{layer.weights.shape}")
    return mask


def apply_mask(layer: WeightLayer, mask: np.ndarray) -> WeightLayer:
    """Zero the pruned entries; surviving entries pass through bit-identically."""
    mask = _layer_mask(layer, mask)
    return WeightLayer(weights=np.where(mask, 0.0, layer.weights),
                       bias=layer.bias, centered=layer.centered)
