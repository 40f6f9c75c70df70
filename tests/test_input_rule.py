"""The engine's one input rule, fed to every entry point.

Every engine array must be a finite 2-D float64 matrix of the expected
width: a NaN or an infinity raises NonFiniteInput, a wrong number of
dimensions or a wrong width raises ShapeMismatch (DimensionMismatch is a
subclass). Masks are boolean, so only their shape is under test. Finite
input whose result overflows float64 raises NonFiniteInput too, never a
numpy RuntimeWarning.
"""

import numpy as np
import pytest

from prunekit import (
    Criterion,
    GramAccumulator,
    SparsitySpec,
    WeightLayer,
    apply_mask,
    bias_delta_norm,
    bias_update,
    brute_force_single_prune,
    build_mask,
    compute_scores,
    prune_layer,
    reconstruction_mse,
    score_magnitude,
    score_sparsegpt,
    stats_init,
    stats_update,
)
from prunekit.errors import DimensionMismatch, NonFiniteInput, ShapeMismatch

M, H, N = 4, 3, 10
_rng = np.random.default_rng(0)
ROWS = _rng.standard_normal((N, M)) + 1.0
WEIGHTS = _rng.standard_normal((M, H))
LAYER = WeightLayer(WEIGHTS, np.zeros(H), centered=False)
STATS = stats_update(stats_init(M), ROWS)
GRAM = GramAccumulator(M)
GRAM.update(ROWS)
MASK = np.zeros((M, H), dtype=bool)
SPEC = SparsitySpec.unstructured(0.5)


def _widen(x):
    """One more column."""
    return np.hstack([x, x[:, :1]])


def _lengthen(x):
    """One more input feature (row), which the statistics do not cover."""
    return np.concatenate([x, x[:1]])


# name: (call on the array under test, its valid value, a wrong-width value)
ENTRY_POINTS = {
    "stats_update": (lambda x: stats_update(stats_init(M), x), ROWS, _widen(ROWS)),
    "GramAccumulator.update": (lambda x: GramAccumulator(M).update(x), ROWS,
                               _widen(ROWS)),
    "score_magnitude": (score_magnitude, WEIGHTS, None),
    # The activation criteria share compute_scores; these keys keep their test IDs stable.
    "score_wanda": (lambda x: compute_scores("wanda", x, stats=STATS), WEIGHTS,
                    _lengthen(WEIGHTS)),
    "score_stade": (lambda x: compute_scores("stade", x, stats=STATS), WEIGHTS,
                    _lengthen(WEIGHTS)),
    "score_stade_star": (lambda x: compute_scores("stade-star", x, stats=STATS),
                         WEIGHTS, _lengthen(WEIGHTS)),
    "score_sparsegpt": (lambda x: score_sparsegpt(x, GRAM), WEIGHTS,
                        _lengthen(WEIGHTS)),
    "build_mask": (lambda x: build_mask(x, SPEC), WEIGHTS, None),
    "bias_update": (lambda x: bias_update(LAYER, x, STATS), MASK, _widen(MASK)),
    "apply_mask": (lambda x: apply_mask(LAYER, x), MASK, _widen(MASK)),
    "reconstruction_mse": (lambda x: reconstruction_mse(LAYER, LAYER, x), ROWS,
                           _widen(ROWS)),
    # The last row lies in the held-out tail.
    "prune_layer": (lambda x: prune_layer("fc", LAYER, x, Criterion("stade"), SPEC),
                    ROWS, _widen(ROWS)),
    "brute_force_single_prune(calib)": (
        lambda x: brute_force_single_prune(WEIGHTS[:, 0], 0.0, x, True), ROWS,
        _widen(ROWS)),
    "brute_force_single_prune(w_col)": (
        lambda x: brute_force_single_prune(x, 0.0, ROWS, True), WEIGHTS[:, 0],
        _lengthen(WEIGHTS[:, 0])),
}


def _with_last(x, value):
    x = x.copy()
    x.flat[-1] = value
    return x


def _cases():
    for name, (_, valid, wide) in ENTRY_POINTS.items():
        if valid.dtype != bool:
            for label, value in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf)):
                yield pytest.param(name, _with_last(valid, value), NonFiniteInput,
                                   id=f"{name}-{label}")
        # A matrix loses its rows axis; the 1-D w_col gains one.
        wrong_ndim = valid[0] if valid.ndim == 2 else valid[None]
        yield pytest.param(name, wrong_ndim, ShapeMismatch, id=f"{name}-ndim")
        if wide is not None:
            yield pytest.param(name, wide, ShapeMismatch, id=f"{name}-width")


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_valid_input_passes(name):
    call, valid, _ = ENTRY_POINTS[name]
    call(valid)


@pytest.mark.parametrize("name, bad, error", _cases())
def test_bad_input_is_typed_error(name, bad, error):
    call, _, _ = ENTRY_POINTS[name]
    with pytest.raises(error):
        call(bad)


def test_stats_width_mismatch_is_one_type():
    wide = stats_update(stats_init(M + 1), _widen(ROWS))
    raised = set()
    for call in (lambda: bias_update(LAYER, MASK, wide),
                 lambda: compute_scores("stade", WEIGHTS, stats=wide)):
        with pytest.raises(ShapeMismatch) as info:
            call()
        raised.add(type(info.value))
    assert raised == {DimensionMismatch}


# Rows of 1e10 with a mean and a spread of 1e10 keep every moment finite, but
# any factor or mean of theirs times weights of 1e300 overflows; so do sums
# and squares past 1e154.
BIG_ROWS = np.array([[3e10, 1.0], [1e10, 2.0]])
BIG_STATS = stats_update(stats_init(2), BIG_ROWS)
BIG_WEIGHTS = np.full((2, 2), 1e300)
BIG_LAYER = WeightLayer(BIG_WEIGHTS, np.zeros(2), centered=False)


def _gram(rows):
    gram = GramAccumulator(rows.shape[1])
    gram.update(rows)
    return gram


# name: the call on one finite input whose result overflows float64
OVERFLOWS = {
    "stats_update": lambda: stats_update(stats_init(2), [[1e160, 1.0], [-1e160, 2.0]]),
    "GramAccumulator.update": lambda: GramAccumulator(2).update([[1e200, 1.0]]),
    "score_wanda": lambda: compute_scores("wanda", BIG_WEIGHTS, stats=BIG_STATS),
    "score_stade": lambda: compute_scores("stade", BIG_WEIGHTS, stats=BIG_STATS),
    "score_stade_star": lambda: compute_scores("stade-star", BIG_WEIGHTS,
                                               stats=BIG_STATS),
    "score_sparsegpt": lambda: score_sparsegpt(BIG_WEIGHTS, _gram(np.eye(2) * 1e-3),
                                               damping=0.0),
    "score_sparsegpt(auto damping)": lambda: score_sparsegpt(
        np.ones((3, 1)), _gram(np.eye(3) * 9.4e153)),
    "bias_update": lambda: bias_update(BIG_LAYER, np.ones((2, 2), dtype=bool),
                                       BIG_STATS),
    "reconstruction_mse": lambda: reconstruction_mse(
        BIG_LAYER, WeightLayer(np.zeros((2, 2)), None, False), BIG_ROWS),
    "bias_delta_norm": lambda: bias_delta_norm(
        WeightLayer(np.zeros((1, 1)), np.array([-1e308]), False),
        WeightLayer(np.zeros((1, 1)), np.array([1e308]), False)),
    "brute_force_single_prune": lambda: brute_force_single_prune(
        np.array([1e300, 1.0]), 0.0, BIG_ROWS, True),
    "prune_layer": lambda: prune_layer("fc", BIG_LAYER, BIG_ROWS, Criterion("wanda"),
                                       SPEC, holdout_fraction=0.0),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", OVERFLOWS)
def test_finite_input_that_overflows_is_typed_error(name):
    with pytest.raises(NonFiniteInput):
        OVERFLOWS[name]()
