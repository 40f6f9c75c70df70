"""Synthetic two-layer MLP generator and criterion comparison runner.

The generator emits a model container plus the matching calibration
container with activations captured at each layer input, the same artifact
pair a user would export from a real network. Feature offsets span (-3, 3)
and feature scales are log-uniform over (0.1, 10), so raw inputs are both
uncentered and scale-heterogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import TensorContainer, WeightLayer
from .criteria import Criterion
from .errors import InvalidArgument
from .masks import SparsitySpec
from .pruner import HOLDOUT_FRACTION, prune_container, split_holdout
from .stats import _is_buildable, _is_count

NORM_KINDS = ("layernorm-like", "rmsnorm-like", "none")
LAYER_NAMES = ("fc1", "fc2")


@dataclass(frozen=True)
class ToyMlpConfig:
    dims: tuple[int, int, int] = (16, 32, 8)
    norm: str = "none"
    samples: int = 256

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or not all(_is_count(d, 1) for d in self.dims):
            raise InvalidArgument(f"dims must be three positive sizes, got {self.dims}")
        if self.norm not in NORM_KINDS:
            raise InvalidArgument(f"norm must be one of {NORM_KINDS}, got {self.norm!r}")
        if not _is_count(self.samples, 4):
            raise InvalidArgument(f"samples must be >= 4, got {self.samples}")
        # Every float64 array gen_toy_mlp builds; each 1-D one is a row of these.
        (d_in, d_hidden, d_out), n = self.dims, self.samples
        shapes = ((n, d_in), (d_in, d_hidden), (n, d_hidden), (d_hidden, d_out))
        if not all(_is_buildable(shape, 8) for shape in shapes):
            raise InvalidArgument(f"dims {self.dims} with {n} samples make an array "
                                  f"numpy cannot build")


def _f32(x: np.ndarray) -> np.ndarray:
    # Round through the container's storage precision so in-memory use and
    # a save/load round trip see identical values.
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def gen_toy_mlp(
    seed: int, config: ToyMlpConfig = ToyMlpConfig()
) -> tuple[TensorContainer, TensorContainer]:
    """Build a two-linear-layer toy model and its captured calibration data.

    Returns ``(model, calib)`` containers; calib holds "fc1.calib" and
    "fc2.calib". With ``config.norm`` "layernorm-like" the first layer's
    input is exactly column-centered and flagged centered; "rmsnorm-like"
    divides by the per-feature root mean square without centering; "none"
    keeps the raw offset input. The rectified second-layer input is never
    centered. ``seed`` must be an integer >= 0 (``_is_count``).
    """
    if not _is_count(seed):
        raise InvalidArgument(f"seed must be an integer >= 0, got {seed!r}")
    d_in, d_hidden, d_out = config.dims
    rng = np.random.default_rng(seed)

    mu = rng.uniform(-3.0, 3.0, size=d_in)
    scale = 10.0 ** rng.uniform(-1.0, 1.0, size=d_in)
    x0 = mu + scale * rng.standard_normal((config.samples, d_in))
    if config.norm == "layernorm-like":
        x1 = x0 - x0.mean(axis=0)
        fc1_centered = True
    elif config.norm == "rmsnorm-like":
        x1 = x0 / np.sqrt(np.mean(x0**2, axis=0))
        fc1_centered = False
    else:
        x1 = x0
        fc1_centered = False
    x1 = _f32(x1)

    fc1 = WeightLayer(_f32(rng.uniform(-1.0, 1.0, size=(d_in, d_hidden))),
                      _f32(rng.uniform(-1.0, 1.0, size=d_hidden)), centered=fc1_centered)
    hidden = _f32(np.maximum(fc1.output(x1), 0.0))
    fc2 = WeightLayer(_f32(rng.uniform(-1.0, 1.0, size=(d_hidden, d_out))),
                      _f32(rng.uniform(-1.0, 1.0, size=d_out)), centered=False)

    model = TensorContainer()
    model.add_layer("fc1", fc1)
    model.add_layer("fc2", fc2)

    calib = TensorContainer()
    calib.add("fc1.calib", x1)
    calib.add("fc2.calib", hidden)
    return model, calib


def forward_toy(model: TensorContainer, rows: np.ndarray) -> np.ndarray:
    """Dense forward pass of a generated toy model on raw first-layer input."""
    hidden = np.maximum(model.get_layer("fc1").output(rows), 0.0)
    return model.get_layer("fc2").output(hidden)


@dataclass
class ComparisonTable:
    """Per-seed held-out reconstruction errors for each criterion and layer."""

    criteria: list[str]
    layers: list[str]
    seeds: list[int]
    sparsity: str
    norm: str
    layer_mse: dict[str, dict[str, list[float]]]
    e2e_mse: dict[str, list[float]]
    resolved: dict[str, list[str]] = field(default_factory=dict)

    def win_fraction(self, better: str, worse: str, layer: str) -> float:
        """Fraction of seeds where ``better`` has MSE <= ``worse`` on a layer."""
        a = np.asarray(self.layer_mse[better][layer])
        b = np.asarray(self.layer_mse[worse][layer])
        return float(np.mean(a <= b))

    def to_text(self) -> str:
        """Aligned table of mean held-out MSE per criterion."""
        header = ["criterion", *self.layers, "end-to-end"]
        rows = [header]
        for tag in self.criteria:
            means = [np.mean(self.layer_mse[tag][layer]) for layer in self.layers]
            means.append(np.mean(self.e2e_mse[tag]))
            rows.append([tag, *(f"{mean:.4e}" for mean in means)])
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        return "\n".join(lines)


def run_comparison(
    criteria: list[str | Criterion],
    spec: SparsitySpec,
    seeds: int,
    config: ToyMlpConfig = ToyMlpConfig(),
) -> ComparisonTable:
    """Prune freshly generated toy models, seeds ``0..seeds-1``, with every criterion.

    Each criterion uses its own bias-update default, and every layer holds
    out the default ``HOLDOUT_FRACTION`` of its rows. The end-to-end error is
    measured on the same held-out samples as each layer's own error.
    Every requested (criterion, layer, seed) cell is filled; identical
    arguments give identical tables.
    """
    crits = [c if isinstance(c, Criterion) else Criterion(c) for c in criteria]
    tags = [c.tag for c in crits]
    if len(crits) < 2:
        raise InvalidArgument("comparison needs at least two criteria")
    if len(set(tags)) < len(tags):
        raise InvalidArgument(f"comparison repeats a criterion tag: {tags}")
    if not _is_count(seeds, 1):
        raise InvalidArgument(f"seeds must be >= 1, got {seeds}")

    layers = list(LAYER_NAMES)
    table = ComparisonTable(
        criteria=tags,
        layers=layers,
        seeds=list(range(seeds)),
        sparsity=str(spec),
        norm=config.norm,
        layer_mse={tag: {layer: [] for layer in layers} for tag in tags},
        e2e_mse={tag: [] for tag in tags},
        resolved={tag: [] for tag in tags},
    )
    for seed in table.seeds:
        model, calib = gen_toy_mlp(seed, config)
        _, holdout = split_holdout(calib.get("fc1.calib"), HOLDOUT_FRACTION)
        dense_out = forward_toy(model, holdout)
        for crit in crits:
            pruned, report = prune_container(model, calib, crit, spec)
            for rec in report.layers:
                table.layer_mse[crit.tag][rec.layer].append(rec.reconstruction_mse)
            table.e2e_mse[crit.tag].append(
                float(np.mean((dense_out - forward_toy(pruned, holdout)) ** 2)))
            table.resolved[crit.tag] = [rec.criterion for rec in report.layers]
    return table
