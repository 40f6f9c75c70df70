"""Layer-wise pruning of a whole container.

Each weight layer is pruned independently: its calibration rows
("<layer>.calib" in a companion container) are split into a statistics
part and a held-out tail, the criterion is resolved against the layer's
centered flag and bias update (stade-w), scores are ranked into a mask,
the bias is compensated, and the held-out rows score the reconstruction
error. Every tensor that is not a layer or a part of one
(``TensorContainer.layer_of``) is copied unchanged.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .compensate import _bias_change, bias_delta_norm, bias_update
from .container import (
    TensorContainer,
    TensorEntry,
    WeightLayer,
    _FileEntry,
    _Slot,
    _staged,
    _TempFile,
    _Writer,
)
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
from .stats import (
    _BLOCK_ROWS,
    ColumnStats,
    _check_rows,
    _is_fraction,
    _matrix,
    _rows,
    stats_init,
    stats_update,
)

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
    counted as zero: the two layers' output difference as one product
    (``_removed_error``), the weight difference widened to float64 once."""
    rows = _rows(rows, "rows", original.m)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.subtract(original.weights, pruned.weights, dtype=np.float64)
    return _removed_error(diff, _bias_change(original, pruned), rows)


def _removed_error(diff: np.ndarray, shift: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows @ diff - shift`` in one n x H buffer: the output error of
    removing the float64 weight difference ``diff`` and moving the bias by
    ``shift``.

    Each chunk of rows, widened and checked by ``_matrix``, is multiplied
    straight into its rows of the buffer. So the call holds ``diff``, the
    buffer and one chunk's rows, and the buffer has the bits of the whole
    product (module docstring). Overflow is left to ``_mean_square``.
    """
    n = rows.shape[0]
    step = _EVAL_ROWS if _EVAL_ROWS * diff.size >= _EVAL_MIN_MACS else max(n, 1)
    cuts = [*range(step, n - step + 1, step)]  # the last chunk takes the remainder
    err = np.empty((n, diff.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip([0, *cuts], [*cuts, n]):
            np.matmul(_matrix(rows[a:b], "rows"), diff, out=err[a:b])
            err[a:b] -= shift
    return err


def _mean_square(err: np.ndarray) -> float:
    """The mean of ``err`` squared in place, 0.0 when it is empty; an error
    that overflows float64 raises ``NonFiniteInput``."""
    with np.errstate(over="ignore", invalid="ignore"):
        mse = float(np.mean(np.square(err, out=err))) if err.size else 0.0
    if not math.isfinite(mse):
        raise NonFiniteInput("reconstruction error overflows float64")
    return mse


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
    return _mean_square(_output_error(original, pruned, rows))


def _holdout_fraction(fraction: float) -> float:
    """The holdout rule: ``fraction`` lies in [0, 0.5] (``_is_fraction``), so
    the held-out tail never overlaps the statistics rows; else ``InvalidArgument``."""
    if not _is_fraction(fraction, 0.5):
        raise InvalidArgument(f"holdout_fraction must lie in [0, 0.5], got {fraction}")
    return fraction


def _holdout_bounds(n: int, fraction: float) -> tuple[int, int]:
    """(end of the statistics rows, start of the held-out rows) of ``n``
    calibration rows: the statistics take the first ``n - floor(fraction * n)``
    and the held-out tail the rest. With an empty tail every row is held out
    (start 0), so the error report never averages over nothing."""
    n_holdout = int(math.floor(_holdout_fraction(fraction) * n))
    return n - n_holdout, (n - n_holdout if n_holdout else 0)


def split_holdout(rows: np.ndarray, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Split rows into (statistics rows, held-out rows) by ``_holdout_bounds``."""
    train_end, holdout_start = _holdout_bounds(rows.shape[0], fraction)
    return rows[:train_end], rows[holdout_start:]


def _training_rows(calib: TensorEntry | _FileEntry, n: int, widen: bool) -> np.ndarray:
    """Rows [0, n) of ``calib``. With ``widen`` an open file's rows are read
    ``_BLOCK_ROWS`` at a time into one float64 array, so they never exist
    whole in float32 beside it; rows held in memory are returned as they are."""
    if not widen or isinstance(calib, TensorEntry):
        return calib.rows(0, n)
    rows = np.empty((n, calib.shape[1]))
    for a in range(0, n, _BLOCK_ROWS):
        rows[a : a + _BLOCK_ROWS] = calib.rows(a, min(a + _BLOCK_ROWS, n))
    return rows


def _updates_bias(resolved: str, bias_update_enabled: bool | None) -> bool:
    """Whether a layer whose criterion resolved to ``resolved`` takes the
    bias update: ``bias_update_enabled``, or when None the criterion's
    default from ``CRITERION_RULES``."""
    if bias_update_enabled is None:
        return CRITERION_RULES[resolved].bias_update
    return bias_update_enabled


def prune_layer(
    name: str,
    layer: WeightLayer | TensorContainer,
    calib_rows: np.ndarray | TensorEntry | _FileEntry,
    criterion: Criterion,
    spec: SparsitySpec,
    bias_update_enabled: bool | None = None,
    holdout_fraction: float = HOLDOUT_FRACTION,
) -> tuple[WeightLayer, np.ndarray, LayerReport]:
    """Run the stats -> score -> mask -> compensate pipeline on one layer.

    ``layer`` is a ``WeightLayer``, or a container holding the layer
    ``name``, such as an open model file; its shape and centered flag then
    come from the entry, which must be a layer. ``calib_rows`` is an array,
    or a container entry such as an open file's "<layer>.calib". Each input
    is read at the stage that needs it (README's "Performance"); the
    weights are read twice, for a ``WeightLayer`` as the same arrays.
    """
    if isinstance(layer, WeightLayer):
        header, m, read = layer, layer.m, lambda: layer
    else:
        header, read = layer.entry(name), lambda: layer.get_layer(name)
        if not header.is_layer:
            raise InvalidArgument(f"tensor {name!r} is not a weight layer")
        m = header.shape[0]
    if not isinstance(calib_rows, (TensorEntry, _FileEntry)):
        calib_rows = TensorEntry.of(f"{name}.calib", np.asarray(calib_rows))
    _check_rows(calib_rows.shape, "calibration rows", m)
    n = calib_rows.shape[0]
    train_end, holdout_start = _holdout_bounds(n, holdout_fraction)
    resolved = select_criterion(criterion, header, bias_update_enabled)
    rule = CRITERION_RULES[resolved]

    train = _training_rows(calib_rows, train_end, rule.needs_gram)
    stats = stats_update(stats_init(m), train)
    gram = None
    if rule.needs_gram:
        gram = GramAccumulator(m)
        gram.update(train)
    del train
    original = read()
    scores = compute_scores(resolved, original.weights, stats=stats, gram=gram,
                            damping=criterion.damping)

    mask = build_mask(scores, spec)
    del gram, scores  # neither is held through compensation and eval
    violation = mask_violation(mask, spec)
    if violation is not None:
        raise AssertionError(f"layer {name!r}: built an invalid mask: {violation}")

    compensated = (bias_update(original, mask, stats)
                   if _updates_bias(resolved, bias_update_enabled) else original)
    delta_norm = bias_delta_norm(original, compensated)  # a finite norm: no overflow below
    bias, shift = compensated.bias, _bias_change(original, compensated)
    bias_added = original.bias is None and bias is not None
    # W0 - W1 with its bits: a removed weight widened, a kept one +0.0.
    diff = np.where(mask, original.weights, np.float64(0))
    del original, compensated  # the error report holds no weights
    mse = _mean_square(_removed_error(diff, shift, calib_rows.rows(holdout_start, n)))
    del diff
    pruned = apply_mask(replace(read(), bias=bias), mask)

    warnings = []
    try:
        empirically_centered = classify_centered(stats)
        if empirically_centered != pruned.centered:
            warnings.append(
                f"empirical centering check ({empirically_centered}) disagrees "
                f"with manifest flag ({pruned.centered}); manifest wins")
    except InsufficientSamples:
        warnings.append("too few rows for the empirical centering check")

    report = LayerReport(
        layer=name,
        criterion=resolved,
        sparsity=str(spec),
        achieved_sparsity=float(mask.mean()) if mask.size else 0.0,
        bias_delta_norm=delta_norm,
        reconstruction_mse=mse,
        centered=pruned.centered,
        max_abs_mean=float(np.abs(stats.mean).max()),
        bias_added=bias_added,
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
    out: str | _TempFile | None = None,
) -> tuple[TensorContainer | None, PruneReport]:
    """Prune every weight layer of ``model``; returns the pruned container
    (layers, biases, and "<layer>.mask" tensors) plus a per-layer report.
    With ``out`` (as ``_staged`` takes it) the pruned container is written
    there instead, as README's "Performance" describes, and None is
    returned in its place. ``bias_update_enabled`` None picks the resolved
    criterion's default from ``CRITERION_RULES``. Every tensor of both
    inputs is read, so an open file's values are all checked before the
    result is returned.
    """
    _holdout_fraction(holdout_fraction)  # a bad fraction fails before any layer
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

    slots, copies = [], []
    for entry in model.entries():
        name = entry.name
        if entry.is_layer:
            slots.append(entry)
            resolved = select_criterion(criterion, entry, bias_update_enabled)
            if f"{name}.bias" in model or _updates_bias(resolved, bias_update_enabled):
                slots.append(_Slot(f"{name}.bias", "f32", entry.shape[1:]))
            slots.append(_Slot(f"{name}.mask", "u8", entry.shape))
        elif model.layer_of(name) is None:
            slots.append(entry)
            copies.append(entry)

    with _staged((out, "container")) as (file,), _Writer(file, slots) as writer:
        def run(name: str) -> LayerReport:
            try:
                pruned, mask, report = prune_layer(
                    name, model, calib.entry(f"{name}.calib"), criterion, spec,
                    bias_update_enabled, holdout_fraction)
            except PruneKitError as exc:
                raise type(exc)(f"layer {name!r}: {exc}") from exc
            writer.add_layer(name, pruned, mask)
            return report

        reports = parallel_map(run, layer_names, threads)
        for entry in copies:
            writer.add(entry.name, entry.array)
    return writer.container, PruneReport(reports)
