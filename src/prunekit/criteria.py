"""Per-weight importance scores.

Every scorer takes a weight matrix with input features along rows (shape
M x H) and returns a same-shaped float64 matrix of non-negative scores;
within a comparison group the lowest-scoring weights are pruned first.
Each resolved criterion's policy is one row of ``CRITERION_RULES``
(README's "Criteria" table).

wanda, stade and stade-star differ only in their per-feature factor, read
from the accumulated statistics (``sumsq``: raw sum of squares, ``m2``:
centered sum of squares); each factor is the ``factor`` field of its row
of ``CRITERION_RULES``, and ``compute_scores`` is the one scorer over
them. The stade-star factor is the root of the plug-in second moment
mean(x_j^2), which makes the score an exact monotone transform of the
empirical no-bias-update reconstruction error, so its argmin matches
exhaustive enumeration on the same sample.

sparsegpt-score needs only the diagonal of the damped inverse Gram. With
G + damping*I = L L^T, that inverse is L^-T L^-1, so the diagonal is the
column sums of squares of L^-1: one damped copy of G is factored (LAPACK
``dpotrf``), inverted (``dtrtri``) and squared in place, and no identity
matrix or full inverse is formed. ``_score_sparsegpt`` imports scipy
itself, as the only code that needs it: importing scipy takes most of a
process's start-up time, which every other criterion and subcommand then
skips.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .container import WeightLayer, _Slot
from .errors import (
    DimensionMismatch,
    EmptyStats,
    InvalidArgument,
    NonFiniteInput,
    SingularGram,
)
from .stats import ColumnStats, _check_stats, _is_fraction, _matrix, _width


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
# stade-w is not a row: select_criterion resolves it per layer.
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
            raise InvalidArgument(f"unknown criterion {self.tag!r}; "
                                  f"expected one of {CRITERION_TAGS}")
        rule = CRITERION_RULES.get(self.tag)
        if rule is None or not rule.needs_gram:
            if self.damping is not None:
                raise InvalidArgument(f"criterion {self.tag!r} takes no damping")
        else:
            damping = "auto" if self.damping is None else self.damping
            object.__setattr__(self, "damping", _damping(damping))


def _damping(value) -> float | str:
    """The damping rule: "auto" or a finite float >= 0, else ``InvalidArgument``."""
    if isinstance(value, str) and value == "auto":
        return value
    if not _is_fraction(value, sys.float_info.max):  # a larger int overflows float()
        raise InvalidArgument(f"damping must be 'auto' or a finite float >= 0, got {value!r}")
    return float(value)


class GramAccumulator:
    """Running sum over calibration rows of the outer product x^T x."""

    def __init__(self, m: int):
        self.gram = np.zeros((_width(m),) * 2, dtype=np.float64)

    @property
    def m(self) -> int:
        return self.gram.shape[0]

    def update(self, rows: np.ndarray) -> None:
        """Add ``rows``; ``NonFiniteInput`` if finite rows overflow float64.

        The product ``x.T @ x`` is summed as BLAS returns it, not mirrored:
        ``_score_sparsegpt`` reads one triangle. Rows are widened whole, not a
        block at a time as the statistics widen them: a Gram summed block by
        block does not reproduce the bits of the one product.
        """
        rows = _matrix(rows, "batch", self.m)
        with np.errstate(over="ignore", invalid="ignore"):
            g = rows.T @ rows
            del rows  # frees a widened copy before the sum
            np.add(self.gram, g, out=g)
        # Cauchy-Schwarz bounds every entry by the diagonal's largest.
        if not np.isfinite(np.diagonal(g)).all():
            raise NonFiniteInput("Gram matrix overflows float64")
        self.gram = g


def _score_sparsegpt(weights: np.ndarray, gram: GramAccumulator,
                     damping: float | str) -> np.ndarray:
    """W^2 over the diagonal of the damped inverse Gram (module docstring).

    ``damping`` obeys ``_damping``, and a missing Gram raises ``EmptyStats``.
    The raw ratio is kept (no square root): only the ranking matters.
    """
    import scipy.linalg  # here, not at module level: see the module docstring

    widened = _matrix(weights, "weights")
    m = widened.shape[0]
    if gram is None:
        raise EmptyStats("no Gram accumulated")
    if gram.m != m:
        raise DimensionMismatch(f"gram width {gram.m} != weight rows {m}")
    damping = _damping(damping)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = 0.01 * float(np.mean(np.diag(gram.gram))) if damping == "auto" else damping
        if not math.isfinite(lam):
            raise NonFiniteInput("auto damping overflows float64")
        damped = gram.gram.copy()
        damped.flat[::m + 1] += lam
        if not np.isfinite(np.diagonal(damped)).all():
            raise NonFiniteInput("damped Gram overflows float64")
        # damped.T is damped in Fortran order, so LAPACK factors it in place;
        # dpotrf reads one triangle of it, so the two need not agree bit for bit.
        factor, info = scipy.linalg.lapack.dpotrf(damped.T, lower=True, overwrite_a=True,
                                                  clean=True)
        if info == 0:
            factor, info = scipy.linalg.lapack.dtrtri(factor, lower=True, overwrite_c=True)
        if info != 0:
            raise SingularGram(f"damped Gram is not positive definite (damping={lam:g}): "
                               f"{info}-th leading minor of the array is not positive "
                               f"definite")
        factor *= factor
        diag = factor.sum(axis=0)
        del damped, factor  # freed before the scores are allocated
        if not (np.isfinite(diag).all() and (diag > 0).all()):
            raise SingularGram(f"inverse diagonal is not strictly positive "
                               f"(damping={lam:g})")
        scores = np.square(widened, out=_scratch(widened, weights))
        scores /= diag[:, None]
    if not np.isfinite(scores).all():
        raise NonFiniteInput("scores overflow float64")
    return scores


def _scratch(widened: np.ndarray, weights) -> np.ndarray | None:
    """``widened`` when ``_matrix`` made it as a new array that only the scorer
    holds (float32 weights, say), so the scores can be computed in it; else
    None, and the scores get an array of their own. The caller's weights are
    never written to: a container's arrays are read-only."""
    return None if np.may_share_memory(widened, weights) else widened


def select_criterion(criterion: Criterion, layer: WeightLayer | _Slot,
                     bias_update: bool | None = None) -> str:
    """Resolve stade-w to the ``CRITERION_RULES`` row optimal in the layer's
    regime: wanda on a centered layer; on an uncentered one stade-star with
    the bias update off (``bias_update`` False), else stade. Other tags pass
    through."""
    if criterion.tag != "stade-w":
        return criterion.tag
    return "wanda" if layer.centered else "stade-star" if bias_update is False else "stade"


def compute_scores(tag: str, weights: np.ndarray,
                   stats: ColumnStats | None = None,
                   gram: GramAccumulator | None = None,
                   damping: float | str = "auto") -> np.ndarray:
    """Score ``weights`` by a resolved criterion tag: the rule's per-feature
    statistics factor times |W|, or the tag's own scorer. ``damping``
    applies to sparsegpt-score only, with ``Criterion``'s meaning."""
    rule = CRITERION_RULES.get(tag)
    if rule is None:
        raise InvalidArgument(f"cannot score unresolved criterion {tag!r}")
    if rule.needs_gram:
        return _score_sparsegpt(weights, gram, damping)
    widened = _matrix(weights, "weights")
    if rule.factor is None:
        return np.abs(widened, out=_scratch(widened, weights))
    _check_stats(stats, widened.shape[0], rule.min_rows)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.abs(widened, out=_scratch(widened, weights))
        scores *= rule.factor(stats)[:, None]
    if not np.isfinite(scores).all():
        raise NonFiniteInput("scores overflow float64")
    return scores
