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
centered sum of squares); each factor is the ``factor`` field of its row
of ``CRITERION_RULES``, and ``compute_scores`` is the one scorer over
them. The stade-star factor is the root of the plug-in second moment
mean(x_j^2), which makes the score an exact monotone transform of the
empirical no-bias-update reconstruction error, so its argmin matches
exhaustive enumeration on the same sample.

Each resolved criterion's policy is one row of ``CRITERION_RULES``, which
the pruner, the oracle and the CLI read. Every scorer applies the engine's
input rules (``stats._matrix`` to the weights, ``stats._check_stats`` to
the statistics) before it computes anything, and finite inputs whose
scores overflow float64 raise ``NonFiniteInput``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .container import WeightLayer
from .errors import DimensionMismatch, NonFiniteInput, SingularGram
from .stats import ColumnStats, _check_stats, _matrix


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
    "wanda": CriterionRule(lambda s: np.sqrt(s.sumsq), 1, False, False,
                           ("centered", True)),
    "stade": CriterionRule(lambda s: np.sqrt(s.m2), 2, False, True,
                           ("uncentered", True)),
    "stade-star": CriterionRule(lambda s: np.sqrt(s.sumsq / s.n), 2, False, False,
                                ("uncentered", False)),
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
        elif not 0.0 <= self.damping < math.inf:  # NaN fails both
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
        """Add ``rows``; ``NonFiniteInput`` if finite rows overflow float64."""
        rows = _matrix(rows, "batch", self.m)
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.gram + rows.T @ rows
            # BLAS need not return an exactly symmetric product; re-symmetrize.
            g = (g + g.T) / 2.0
        # Cauchy-Schwarz bounds every entry by the diagonal's largest.
        if not np.isfinite(np.diagonal(g)).all():
            raise NonFiniteInput("Gram matrix overflows float64")
        self.gram = g
        self.n += rows.shape[0]


def score_magnitude(weights: np.ndarray) -> np.ndarray:
    """|W|."""
    return np.abs(_matrix(weights, "weights"))


def score_sparsegpt(weights: np.ndarray, gram: GramAccumulator,
                    damping: float | str = "auto") -> np.ndarray:
    """W^2 over the diagonal of the damped inverse Gram.

    The diagonal comes from a Cholesky factorization of G + damping*I.
    ``damping`` "auto" means 0.01 * mean(diag(G)); 0.0 means undamped. The
    raw ratio is kept (no square root): only the ranking matters.
    """
    weights = _matrix(weights, "weights")
    m = weights.shape[0]
    if gram.m != m:
        raise DimensionMismatch(f"gram width {gram.m} != weight rows {m}")
    with np.errstate(over="ignore", invalid="ignore"):
        lam = (0.01 * float(np.mean(np.diag(gram.gram))) if damping == "auto"
               else float(damping))
        damped = gram.gram + lam * np.eye(m)
    if not math.isfinite(lam):
        raise NonFiniteInput("auto damping overflows float64")
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
    with np.errstate(over="ignore", invalid="ignore"):
        scores = weights**2 / diag[:, None]
    if not np.isfinite(scores).all():
        raise NonFiniteInput("scores overflow float64")
    return scores


def select_criterion(criterion: Criterion, layer: WeightLayer) -> str:
    """Resolve stade-w against the layer's centered flag; other tags pass through."""
    if criterion.tag == "stade-w":
        return "wanda" if layer.centered else "stade"
    return criterion.tag


def compute_scores(tag: str, weights: np.ndarray,
                   stats: ColumnStats | None = None,
                   gram: GramAccumulator | None = None,
                   damping: float | str = "auto") -> np.ndarray:
    """Score ``weights`` by a resolved criterion tag: the rule's per-feature
    statistics factor times |W|, or the tag's own scorer."""
    rule = CRITERION_RULES.get(tag)
    if rule is None:
        raise ValueError(f"cannot score unresolved criterion {tag!r}")
    if rule.factor is not None:
        weights = _matrix(weights, "weights")
        _check_stats(stats, weights.shape[0], rule.min_rows)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = rule.factor(stats)[:, None] * np.abs(weights)
        if not np.isfinite(scores).all():
            raise NonFiniteInput("scores overflow float64")
        return scores
    if rule.needs_gram:
        return score_sparsegpt(weights, gram, damping)
    return score_magnitude(weights)
