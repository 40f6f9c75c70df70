"""Layer-wise pruning of a whole container.

Each weight layer is pruned independently: its calibration rows
("<layer>.calib" in a companion container) are split into a statistics
part and a held-out tail, the criterion is resolved against the layer's
centered flag (stade-w), scores are ranked into a mask, the bias is
compensated, and the held-out rows score the reconstruction error. Every
tensor that is not a layer or a part of one (``TensorContainer.layer_of``)
is copied unchanged.

The error report is one product of the removed weights, ``x @ (W0 - W1)``.
It splits the held-out rows, never the columns: a column block is a
different BLAS product and changes the last bits. A chunk of rows keeps the
whole product's bits only while the BLAS computes each of its rows as it
does in the whole. On OpenBLAS (CHANGES.md names the build) three cases
break that:

- a single row goes to gemv, and a product of at most 10**6 multiply-adds
  to a small-matrix kernel, so a layer is split only when an
  ``_EVAL_ROWS``-row product has ``_EVAL_MIN_MACS`` multiply-adds, and the
  last chunk takes the remainder rather than standing alone;
- at an output width that is not a multiple of 8, the last columns' sums
  depend on where a row falls among the kernel's groups of 12 rows, so
  ``_EVAL_ROWS`` is a multiple of 48 and every chunk starts on a group
  boundary;
- at such widths several BLAS threads split the rows by the row count, so
  the whole product's own bits change with the thread count, and chunks do
  not keep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compensate import _bias_change, bias_delta_norm, bias_update
from .container import TensorContainer, WeightLayer
from .criteria import (
    CRITERION_RULES,
    Criterion,
    GramAccumulator,
    compute_scores,
    select_criterion,
)
from .errors import (
    InsufficientSamples,
    InvalidArgument,
    MissingCalibration,
    NonFiniteInput,
    PruneKitError,
    ShapeMismatch,
)
from .masks import SparsitySpec, apply_mask, build_mask, mask_violation
from .parallel import parallel_map
from .stats import ColumnStats, _is_fraction, _matrix, _rows, stats_init, stats_update

CENTERED_RATIO_THRESHOLD = 0.1
HOLDOUT_FRACTION = 0.2  # default share of calibration rows held out for the error report
_EVAL_ROWS = 528  # held-out rows widened and multiplied at a time; a multiple of 48
_EVAL_MIN_MACS = 1 << 21  # a layer is split only if a chunk's product is this large


@dataclass
class LayerReport:
    layer: str
    criterion: str
    sparsity: str
    achieved_sparsity: float
    bias_delta_norm: float
    reconstruction_mse: float
    centered: bool
    max_abs_mean: float
    bias_added: bool
    warnings: list[str] = field(default_factory=list)


@dataclass
class PruneReport:
    layers: list[LayerReport]


def classify_centered(stats: ColumnStats) -> bool:
    """Empirical centering check: every |mean_j| small relative to std_j.

    The ratio threshold is ``CENTERED_RATIO_THRESHOLD`` widened by the
    sampling noise of the empirical means (~1/sqrt(n), max over the M
    features), so exactly centered layers are not flagged spuriously.
    """
    if stats.n < 2:
        raise InsufficientSamples("centering check needs at least two rows")
    noise = (2.5 + math.sqrt(2.0 * math.log(max(stats.m, 2)))) / math.sqrt(stats.n)
    ratio = np.abs(stats.mean) / (np.sqrt(stats.variance()) + 1e-12)
    return bool(ratio.max() <= max(CENTERED_RATIO_THRESHOLD, noise))


def _output_error(original: WeightLayer, pruned: WeightLayer,
                  rows: np.ndarray) -> np.ndarray:
    """``rows @ (W0 - W1) + (b0 - b1)`` in one n x H buffer, a missing bias
    counted as zero: the two layers' output difference as one product.

    The weight difference is widened to float64 once, and each chunk of rows,
    widened and checked by ``_matrix``, is multiplied straight into its rows
    of the buffer. So the call holds the difference, the buffer and one
    chunk's rows, and the buffer has the bits of the whole product (module
    docstring). Overflow is left to the caller.
    """
    rows = _rows(rows, "rows", original.m)
    n = rows.shape[0]
    step = _EVAL_ROWS if _EVAL_ROWS * original.weights.size >= _EVAL_MIN_MACS else max(n, 1)
    cuts = [*range(step, n - step + 1, step)]  # the last chunk takes the remainder
    err = np.empty((n, original.h))
    diff = np.subtract(original.weights, pruned.weights, dtype=np.float64)
    shift = _bias_change(original, pruned)
    for a, b in zip([0, *cuts], [*cuts, n]):
        np.matmul(_matrix(rows[a:b], "rows"), diff, out=err[a:b])
        err[a:b] -= shift
    return err


def reconstruction_mse(original: WeightLayer, pruned: WeightLayer,
                       rows: np.ndarray) -> float:
    """Mean squared output difference between the two layers over ``rows``.

    An empty output (no rows or no output columns) averages to 0.0. Finite
    inputs whose error overflows float64 raise ``NonFiniteInput``; outputs
    that overflow while their difference does not are not an error. The
    mean is taken over ``_output_error``'s whole buffer at once.
    """
    if original.weights.shape != pruned.weights.shape:
        raise ShapeMismatch("layer shapes differ")
    with np.errstate(over="ignore", invalid="ignore"):
        err = _output_error(original, pruned, rows)
        mse = float(np.mean(np.square(err, out=err))) if err.size else 0.0
    if not math.isfinite(mse):
        raise NonFiniteInput("reconstruction error overflows float64")
    return mse


def split_holdout(rows: np.ndarray, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Split rows into (statistics rows, held-out tail of floor(fraction * n) rows).

    ``fraction`` must lie in [0, 0.5] (``_is_fraction``), else
    ``InvalidArgument``, so the tail never overlaps the statistics rows. With an
    empty tail every row is held out, so the error report never averages over nothing.
    """
    if not _is_fraction(fraction, 0.5):
        raise InvalidArgument(f"holdout_fraction must lie in [0, 0.5], got {fraction}")
    n_holdout = int(math.floor(fraction * rows.shape[0]))
    train = rows[: rows.shape[0] - n_holdout]
    return train, (rows[-n_holdout:] if n_holdout else train)


def prune_layer(
    name: str,
    layer: WeightLayer,
    calib_rows: np.ndarray,
    criterion: Criterion,
    spec: SparsitySpec,
    bias_update_enabled: bool | None = None,
    holdout_fraction: float = HOLDOUT_FRACTION,
) -> tuple[WeightLayer, np.ndarray, LayerReport]:
    """Run the stats -> score -> mask -> compensate pipeline on one layer."""
    calib_rows = _rows(calib_rows, "calibration rows", layer.m)
    train, holdout = split_holdout(calib_rows, holdout_fraction)
    stats = stats_update(stats_init(layer.m), train)
    resolved = select_criterion(criterion, layer)
    rule = CRITERION_RULES[resolved]
    if bias_update_enabled is None:
        bias_update_enabled = rule.bias_update

    gram = None
    if rule.needs_gram:
        gram = GramAccumulator(layer.m)
        gram.update(train)
    scores = compute_scores(resolved, layer.weights, stats=stats, gram=gram,
                            damping=criterion.damping)

    mask = build_mask(scores, spec)
    del gram, scores  # neither is held through compensation and eval
    violation = mask_violation(mask, spec)
    if violation is not None:
        raise AssertionError(f"layer {name!r}: built an invalid mask: {violation}")

    compensated = bias_update(layer, mask, stats) if bias_update_enabled else layer
    pruned = apply_mask(compensated, mask)

    warnings = []
    try:
        empirically_centered = classify_centered(stats)
        if empirically_centered != layer.centered:
            warnings.append(
                f"empirical centering check ({empirically_centered}) disagrees "
                f"with manifest flag ({layer.centered}); manifest wins")
    except InsufficientSamples:
        warnings.append("too few rows for the empirical centering check")

    report = LayerReport(
        layer=name,
        criterion=resolved,
        sparsity=str(spec),
        achieved_sparsity=float(mask.mean()) if mask.size else 0.0,
        bias_delta_norm=bias_delta_norm(layer, pruned),
        reconstruction_mse=reconstruction_mse(layer, pruned, holdout),
        centered=layer.centered,
        max_abs_mean=float(np.abs(stats.mean).max()),
        bias_added=layer.bias is None and pruned.bias is not None,
        warnings=warnings,
    )
    return pruned, mask, report


def prune_container(
    model: TensorContainer,
    calib: TensorContainer,
    criterion: Criterion,
    spec: SparsitySpec,
    bias_update_enabled: bool | None = None,
    holdout_fraction: float = HOLDOUT_FRACTION,
    threads: int = 1,
) -> tuple[TensorContainer, PruneReport]:
    """Prune every weight layer of ``model``; returns the pruned container
    (layers, biases, and "<layer>.mask" tensors) plus a per-layer report.

    ``bias_update_enabled`` None picks the resolved criterion's default from
    ``CRITERION_RULES``. A model that is itself a pruning output can be
    pruned again: its old biases and masks are replaced by the new ones.

    Each worker gets its layer's weights, bias and "<layer>.calib" when it
    starts and lets them go when it returns, so on containers from
    ``open_container`` the run holds ``threads`` layers' inputs plus the
    pruned outputs, and reading overlaps pruning. Every tensor of both
    inputs is read, so an open file's values are all checked before the
    result is returned.
    """
    split_holdout(np.empty((0, 0)), holdout_fraction)  # a bad fraction fails before any layer
    layer_names = model.layer_names()
    # The tensors that nothing below reads, the old masks the output replaces
    # and calibration tensors of no layer, are read once only to be checked.
    calib_names = {f"{name}.calib" for name in layer_names}
    unread = [e for e in model.entries() if e.name.endswith(".mask") and model.layer_of(e.name)]
    unread += [e for e in calib.entries() if e.name not in calib_names]
    for entry in unread:
        entry.array
    for name in layer_names:
        if f"{name}.calib" not in calib:
            raise MissingCalibration(f"no calibration rows for layer {name!r}")

    def run(name: str):
        try:
            return prune_layer(name, model.get_layer(name), calib.get(f"{name}.calib"),
                               criterion, spec, bias_update_enabled, holdout_fraction)
        except PruneKitError as exc:
            raise type(exc)(f"layer {name!r}: {exc}") from exc

    results = dict(zip(layer_names, parallel_map(run, layer_names, threads)))

    out = TensorContainer()
    for entry in model.entries():
        if entry.is_layer:
            pruned, mask, _ = results[entry.name]
            out.add_layer(entry.name, pruned)
            out.add_mask(entry.name, mask)
        elif model.layer_of(entry.name) is None:
            out.add(entry.name, entry.array)
    return out, PruneReport([results[name][2] for name in layer_names])
