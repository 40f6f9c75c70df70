"""Per-weight importance scores.

Every scorer takes a weight matrix with input features along rows (shape
M x H) and returns a same-shaped float64 matrix of non-negative scores;
within a comparison group the lowest-scoring weights are pruned first.

Available criteria:

    magnitude        |W|
    wanda            sqrt(sumsq_j) * |W|        (raw activation norm)
    stade            sqrt(m2_j) * |W|           (centered activation norm)
    stade-star       sqrt(sumsq_j / n) * |W|    (root second moment; no bias update)
    stade-w          wanda on centered layers, stade otherwise
    sparsegpt-score  W^2 / diag((G + damping*I)^-1)

wanda, stade and stade-star differ only in their per-feature factor, read
from the accumulated statistics (``sumsq``: raw sum of squares, ``m2``:
centered sum of squares). The stade-star factor is the root of the
plug-in second moment mean(x_j^2), which makes the score an exact monotone
transform of the empirical no-bias-update reconstruction error, so its
argmin matches exhaustive enumeration on the same sample.

Each resolved criterion's policy is one row of ``CRITERION_RULES``, which
the pruner, the oracle and the CLI read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg

from .container import WeightLayer
from .errors import (
    DimensionMismatch,
    EmptyStats,
    InsufficientSamples,
    NonFiniteInput,
    SingularGram,
)
from .stats import ColumnStats, _check_batch, stats_centered_l2, stats_l2


@dataclass(frozen=True)
class CriterionRule:
    """The whole policy of one resolved criterion: one row of CRITERION_RULES."""

    factor: Callable[[ColumnStats], np.ndarray] | None  # times |W|; None: own scorer
    min_rows: int  # calibration rows the score needs
    needs_gram: bool  # scores from the Gram x^T x, so takes a damping
    bias_update: bool  # the --bias-update auto default
    optimal_in: tuple[str, bool] | None  # (data regime, bias refit) the oracle checks


# stade needs two rows: with one the centered norm is identically zero and
# every ranking would be arbitrary.
CRITERION_RULES = {
    "magnitude": CriterionRule(None, 0, False, False, None),
    "wanda": CriterionRule(stats_l2, 1, False, False, ("centered", True)),
    "stade": CriterionRule(stats_centered_l2, 2, False, True, ("uncentered", True)),
    "stade-star": CriterionRule(lambda stats: np.sqrt(stats.sumsq / stats.n), 2,
                                False, False, ("uncentered", False)),
    "sparsegpt-score": CriterionRule(None, 0, True, False, None),
}
# stade-w is not a row: select_criterion resolves it to wanda or stade per layer.
CRITERION_TAGS = (*CRITERION_RULES, "stade-w")
CHECKABLE_TAGS = tuple(tag for tag, rule in CRITERION_RULES.items() if rule.optimal_in)


@dataclass(frozen=True)
class Criterion:
    """A pruning criterion selection; ``damping`` applies to sparsegpt-score only.

    ``damping`` is a finite non-negative float (0 means undamped) or "auto",
    the default, which resolves to 0.01 * mean(diag(G)) at scoring time.
    """

    tag: str
    damping: float | str | None = None

    def __post_init__(self) -> None:
        if self.tag not in CRITERION_TAGS:
            raise ValueError(f"unknown criterion {self.tag!r}; "
                             f"expected one of {CRITERION_TAGS}")
        rule = CRITERION_RULES.get(self.tag)
        if rule is None or not rule.needs_gram:
            if self.damping is not None:
                raise ValueError(f"criterion {self.tag!r} takes no damping")
        elif self.damping is None:
            object.__setattr__(self, "damping", "auto")
        elif isinstance(self.damping, str):
            if self.damping != "auto":
                raise ValueError(f"damping must be a float or 'auto', "
                                 f"got {self.damping!r}")
        elif not (math.isfinite(self.damping) and self.damping >= 0):
            raise ValueError(f"damping must be finite and >= 0, got {self.damping}")


class GramAccumulator:
    """Running sum over calibration rows of the outer product x^T x."""

    def __init__(self, m: int):
        self.gram = np.zeros((m, m), dtype=np.float64)
        self.n = 0

    @property
    def m(self) -> int:
        return self.gram.shape[0]

    def update(self, rows: np.ndarray) -> None:
        rows = _check_batch(rows, self.m)
        g = self.gram + rows.T @ rows
        # BLAS need not return an exactly symmetric product; re-symmetrize.
        self.gram = (g + g.T) / 2.0
        self.n += rows.shape[0]


def _check_weights(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise DimensionMismatch(f"weights must be 2-D, got {weights.ndim}-D")
    if not np.isfinite(weights).all():
        raise NonFiniteInput("weights contain NaN/Inf")
    return weights


def _check_stats(stats: ColumnStats, m: int, min_rows: int) -> None:
    if stats.m != m:
        raise DimensionMismatch(f"stats width {stats.m} != weight rows {m}")
    if stats.n == 0:
        raise EmptyStats("no calibration rows accumulated")
    if stats.n < min_rows:
        raise InsufficientSamples(
            f"criterion needs >= {min_rows} calibration rows, got {stats.n}")


def score_magnitude(weights: np.ndarray) -> np.ndarray:
    """|W|."""
    return np.abs(_check_weights(weights))


def _score_activation(tag: str, weights: np.ndarray, stats: ColumnStats) -> np.ndarray:
    """Per-feature statistics factor of criterion ``tag`` times |W|."""
    rule = CRITERION_RULES[tag]
    weights = _check_weights(weights)
    _check_stats(stats, weights.shape[0], rule.min_rows)
    return rule.factor(stats)[:, None] * np.abs(weights)


score_wanda = partial(_score_activation, "wanda")
score_stade = partial(_score_activation, "stade")
score_stade_star = partial(_score_activation, "stade-star")


def score_sparsegpt(weights: np.ndarray, gram: GramAccumulator,
                    damping: float | str = "auto") -> np.ndarray:
    """W^2 over the diagonal of the damped inverse Gram.

    The diagonal comes from a Cholesky factorization of G + damping*I.
    ``damping`` "auto" means 0.01 * mean(diag(G)); 0.0 means undamped. The
    raw ratio is kept (no square root): only the ranking matters.
    """
    weights = _check_weights(weights)
    m = weights.shape[0]
    if gram.m != m:
        raise DimensionMismatch(f"gram width {gram.m} != weight rows {m}")
    lam = (0.01 * float(np.mean(np.diag(gram.gram))) if damping == "auto"
           else float(damping))
    damped = gram.gram + lam * np.eye(m)
    try:
        factor = scipy.linalg.cho_factor(damped, lower=True, check_finite=False)
        inverse = scipy.linalg.cho_solve(factor, np.eye(m), check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"damped Gram is not positive definite "
                           f"(damping={lam:g}): {exc}") from exc
    diag = np.diag(inverse)
    if not (np.isfinite(diag).all() and (diag > 0).all()):
        raise SingularGram(f"inverse diagonal is not strictly positive "
                           f"(damping={lam:g})")
    return weights**2 / diag[:, None]


def select_criterion(criterion: Criterion, layer: WeightLayer) -> str:
    """Resolve stade-w against the layer's centered flag; other tags pass through."""
    if criterion.tag == "stade-w":
        return "wanda" if layer.centered else "stade"
    return criterion.tag


def compute_scores(tag: str, weights: np.ndarray,
                   stats: ColumnStats | None = None,
                   gram: GramAccumulator | None = None,
                   damping: float | str = "auto") -> np.ndarray:
    """Dispatch to the scorer for a resolved criterion tag."""
    rule = CRITERION_RULES.get(tag)
    if rule is None:
        raise ValueError(f"cannot score unresolved criterion {tag!r}")
    if rule.factor is not None:
        return _score_activation(tag, weights, stats)
    if rule.needs_gram:
        return score_sparsegpt(weights, gram, damping)
    return score_magnitude(weights)
