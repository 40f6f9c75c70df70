"""Layer-wise pruning of a whole container.

Each weight layer is pruned independently: calibration rows are split into a
statistics part and a held-out tail, the criterion is resolved against the
layer's centered flag (stade-w protocol), scores are ranked into a mask, the
bias is compensated, and the held-out rows score the reconstruction error.
Calibration activations arrive precomputed in a companion container as
"<layer>.calib" tensors, so the engine never needs to execute a model.
Every calibration row, held-out tail included, obeys the engine's input
rule (``stats._matrix``), so a NaN or infinity anywhere in them raises
``NonFiniteInput`` instead of reaching the error report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .compensate import bias_delta_norm, bias_update
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
    MissingCalibration,
    NonFiniteInput,
    PruneKitError,
    ShapeMismatch,
)
from .masks import SparsitySpec, apply_mask, build_mask, mask_violation
from .parallel import parallel_map
from .stats import ColumnStats, _matrix, stats_init, stats_update

CENTERED_RATIO_THRESHOLD = 0.1
HOLDOUT_FRACTION = 0.2  # default share of calibration rows held out for the error report


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

    def to_dict(self) -> dict:
        return {"layers": [asdict(rec) for rec in self.layers]}


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


def reconstruction_mse(original: WeightLayer, pruned: WeightLayer,
                       rows: np.ndarray) -> float:
    """Mean squared output difference between the two layers over ``rows``.

    An empty output (no rows or no output columns) averages to 0.0. Finite
    inputs whose outputs or error overflow float64 raise ``NonFiniteInput``.
    """
    if original.weights.shape != pruned.weights.shape:
        raise ShapeMismatch("layer shapes differ")
    rows = _matrix(rows, "rows", original.m)
    with np.errstate(over="ignore", invalid="ignore"):
        y0 = rows @ original.weights
        if original.bias is not None:
            y0 = y0 + original.bias
        y1 = rows @ pruned.weights
        if pruned.bias is not None:
            y1 = y1 + pruned.bias
        mse = float(np.mean((y0 - y1) ** 2)) if y0.size else 0.0
    if not math.isfinite(mse):
        raise NonFiniteInput("reconstruction error overflows float64")
    return mse


def split_holdout(rows: np.ndarray, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Split rows into (statistics rows, held-out tail of floor(fraction * n) rows).

    ``fraction`` must lie in [0, 0.5], else ``ValueError`` (NaN included),
    so the tail never overlaps the statistics rows. With an empty tail every
    row is held out, so the error report never averages over nothing.
    """
    if not 0.0 <= fraction <= 0.5:
        raise ValueError(f"holdout_fraction must lie in [0, 0.5], got {fraction}")
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
    calib_rows = _matrix(calib_rows, "calibration rows", layer.m)
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
    """
    split_holdout(np.empty((0, 0)), holdout_fraction)  # a bad fraction fails before any layer
    layer_names = model.layer_names()
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
        stem, _, suffix = entry.name.rpartition(".")
        if entry.is_layer:
            pruned, mask, _ = results[entry.name]
            out.add_layer(entry.name, pruned)
            out.add_mask(entry.name, mask)
        elif not (suffix in ("bias", "mask") and stem in results):
            out.add(entry.name, entry.array)
    return out, PruneReport([results[name][2] for name in layer_names])
