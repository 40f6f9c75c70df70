import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from prunekit import (
    WeightLayer,
    apply_mask,
    bias_delta_norm,
    bias_update,
    reconstruction_mse,
    stats_init,
    stats_update,
)
from prunekit.errors import EmptyStats, NonFiniteInput, ShapeMismatch


def stats_of(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return stats_update(stats_init(rows.shape[1]), rows)


def single_prune_mask(m, h, j):
    mask = np.zeros((m, h), dtype=bool)
    mask[j, :] = True
    return mask


def test_single_prune_shifts_bias_by_mean_times_weight():
    layer = WeightLayer(np.array([[3.0], [0.5]]), np.array([1.0]), centered=False)
    stats = stats_of([[0.0, 10.0], [0.0, 10.0]])
    out = bias_update(layer, single_prune_mask(2, 1, 1), stats)
    assert out.bias[0] == pytest.approx(6.0, abs=1e-12)
    # pre-prune weights untouched here
    assert np.array_equal(out.weights, layer.weights)


def test_centered_input_leaves_bias_alone():
    layer = WeightLayer(np.array([[2.0], [1.0]]), np.array([0.75]), centered=True)
    stats = stats_of([[1.0, -1.0], [-1.0, 1.0]])  # exact zero means
    out = bias_update(layer, single_prune_mask(2, 1, 0), stats)
    assert np.array_equal(out.bias, layer.bias)


def test_multi_prune_sums_contributions():
    layer = WeightLayer(np.array([[2.0], [3.0], [-1.0]]), np.array([1.0]),
                        centered=False)
    stats = stats_of(np.tile([1.0, 2.0, 4.0], (3, 1)))
    mask = np.array([[True], [True], [False]])
    out = bias_update(layer, mask, stats)
    assert out.bias[0] == pytest.approx(1.0 + 1.0 * 2.0 + 2.0 * 3.0)


def test_missing_bias_materialized_even_when_zero():
    layer = WeightLayer(np.array([[1.0], [2.0]]), None, centered=False)
    stats = stats_of([[3.0, 0.0], [5.0, 0.0]])
    pruned_const = bias_update(layer, single_prune_mask(2, 1, 0), stats)
    assert pruned_const.bias is not None
    assert pruned_const.bias[0] == pytest.approx(4.0)
    # pruning a feature with exactly zero mean still adds a bias, of zeros
    pruned_zero = bias_update(layer, single_prune_mask(2, 1, 1), stats)
    assert pruned_zero.bias is not None and pruned_zero.bias.tolist() == [0.0]


def test_bias_optimal_against_golden_section():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n, m = 40, 6
        rows = rng.uniform(-5, 5, size=m) + rng.uniform(0.1, 2.0, size=m) \
            * rng.standard_normal((n, m))
        w = rng.uniform(-1, 1, size=(m, 1))
        b0 = float(rng.uniform(-1, 1))
        j = int(rng.integers(0, m))
        layer = WeightLayer(w, np.array([b0]), centered=False)
        stats = stats_of(rows)
        mask = single_prune_mask(m, 1, j)
        closed = bias_update(layer, mask, stats).bias[0]

        dense = rows @ w[:, 0] + b0
        survivors = rows @ np.where(mask[:, 0], 0.0, w[:, 0])

        def objective(b):
            return np.mean((dense - (survivors + b)) ** 2)

        res = minimize_scalar(objective, method="golden",
                              bracket=(b0 - 10.0, b0 + 10.0))
        assert closed == pytest.approx(res.x, abs=1e-7)


def test_constant_feature_prune_reconstructs_exactly():
    # Dyadic constant and power-of-two row count keep the mean exact, so the
    # compensated layer reproduces the dense output bit-for-bit.
    rows = np.column_stack([np.full(4, 0.5), np.array([1.0, -2.0, 3.0, 0.0])])
    layer = WeightLayer(np.array([[2.0], [1.5]]), np.array([-0.25]), centered=False)
    stats = stats_of(rows)
    mask = single_prune_mask(2, 1, 0)
    pruned = WeightLayer(apply_mask(layer, mask).weights,
                         bias_update(layer, mask, stats).bias, layer.centered)
    assert reconstruction_mse(layer, pruned, rows) == 0.0


def test_kept_weight_whose_shift_overflows_does_not_poison_the_bias():
    # mean_0 * w_0 = 1e10 * 1e300 overflows, but weight 0 is kept: only
    # feature 1 (mean 1.5, weight 1) is pruned, so the bias shifts by 1.5.
    stats = stats_of([[1e10, 1.0], [1e10, 2.0]])
    weights = np.array([[1e300], [1.0]])
    for bias in (np.array([0.0]), None):
        out = bias_update(WeightLayer(weights, bias, False), single_prune_mask(2, 1, 1),
                          stats)
        assert out.bias.tolist() == [1.5]
    with pytest.raises(NonFiniteInput):
        bias_update(WeightLayer(weights, None, False), single_prune_mask(2, 1, 0), stats)


@pytest.mark.parametrize("m, h", [(1, 1), (600, 1), (256, 3), (257, 2), (600, 3),
                                  (700, 64)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_bias_update_has_the_bits_of_the_whole_product_sum(m, h, dtype, order):
    # Row blocks continue numpy's row-by-row sum of a C-contiguous product;
    # one column (summed pairwise) and other layouts are summed whole.
    rng = np.random.default_rng(m * h)
    weights = np.asarray(rng.standard_normal((m, h)).astype(dtype), order=order)
    stats = stats_of(rng.uniform(-3, 3, m) + rng.standard_normal((20, m)))
    mask = np.asarray(rng.random((m, h)) < 0.5, order=order)
    delta = ((mask * stats.mean[:, None]) * weights).sum(axis=0)
    for bias in (rng.standard_normal(h).astype(dtype), None):
        out = bias_update(WeightLayer(weights, bias, False), mask, stats)
        want = delta if bias is None else np.where(delta != 0.0, bias + delta, bias)
        assert out.bias.tobytes() == want.tobytes()


def _reconstruction_mse_reference(original, pruned, rows):
    """The one-product error written out whole: ``rows @ (W0 - W1) + (b0 - b1)``
    in float64, a missing bias counted as zero, then its mean square."""
    def bias(layer):
        return np.zeros(layer.h) if layer.bias is None else layer.bias.astype(np.float64)

    diff = original.weights.astype(np.float64) - pruned.weights.astype(np.float64)
    err = rows @ diff + (bias(original) - bias(pruned))
    return float(np.mean(err ** 2)) if err.size else 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 30), m=st.integers(1, 12),
       h=st.integers(0, 6), biases=st.tuples(st.booleans(), st.booleans()),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_reconstruction_mse_is_bit_identical_to_the_reference(seed, n, m, h, biases,
                                                               dtype):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, m)) + rng.uniform(-3, 3, m)
    w = rng.standard_normal((m, h)).astype(dtype)
    original = WeightLayer(w, rng.standard_normal(h).astype(dtype) if biases[0] else None,
                           False)
    pruned = WeightLayer(np.where(rng.random((m, h)) < 0.5, 0, w),
                         rng.standard_normal(h).astype(dtype) if biases[1] else None, False)
    mse = reconstruction_mse(original, pruned, rows)
    assert mse == _reconstruction_mse_reference(original, pruned, rows)


def test_bias_delta_norm_zero_for_noop():
    layer = WeightLayer(np.ones((2, 1)), np.array([3.0]), centered=False)
    assert bias_delta_norm(layer, layer) == 0.0


def test_bias_delta_norm_single_prune():
    before = WeightLayer(np.array([[0.5]]), np.array([1.0]), centered=False)
    stats = stats_of([[10.0], [10.0]])
    after = bias_update(before, np.array([[True]]), stats)
    assert bias_delta_norm(before, after) == pytest.approx(5.0)


def test_bias_delta_norm_handles_missing_bias():
    w = np.ones((1, 2))
    before = WeightLayer(w, None, centered=False)
    after = WeightLayer(w, np.array([0.5, -0.5]), centered=False)
    assert bias_delta_norm(before, after) == pytest.approx(1.0)


def test_bias_delta_norm_overflow_is_typed_error():
    # Each bias is finite; their difference and its sum are not.
    w = np.ones((1, 2))
    before = WeightLayer(w, np.full(2, -1e308), centered=False)
    after = WeightLayer(w, np.full(2, 1e308), centered=False)
    with pytest.raises(NonFiniteInput, match="overflow"):
        bias_delta_norm(before, after)


def test_bias_delta_norm_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        bias_delta_norm(WeightLayer(np.ones((1, 2)), None, False),
                        WeightLayer(np.ones((1, 3)), None, False))


def test_shape_and_stats_errors():
    layer = WeightLayer(np.ones((2, 2)), None, centered=False)
    with pytest.raises(ShapeMismatch):
        bias_update(layer, np.ones((3, 2), dtype=bool), stats_of([[1.0, 2.0]]))
    with pytest.raises(ShapeMismatch):
        bias_update(layer, np.ones((2, 2), dtype=bool), stats_of([[1.0, 2.0, 3.0]]))
    with pytest.raises(EmptyStats):
        bias_update(layer, np.ones((2, 2), dtype=bool), stats_init(2))


def test_multi_prune_bias_is_least_squares_for_any_mask():
    # For any pruned set the summed shifts are the exact least-squares bias
    # on the statistics rows: solve for it as a one-column regression.
    rng = np.random.default_rng(37)
    for _ in range(50):
        n, m, h = int(rng.integers(2, 65)), int(rng.integers(2, 17)), 3
        rows = rng.uniform(-5, 5, size=m) + rng.uniform(0.1, 2.0, size=m) \
            * rng.standard_normal((n, m))
        w = rng.uniform(-1, 1, size=(m, h))
        b0 = rng.uniform(-1, 1, size=h)
        mask = rng.random((m, h)) < rng.uniform(0.1, 0.9)
        layer = WeightLayer(w, b0, centered=False)
        closed = bias_update(layer, mask, stats_of(rows)).bias

        target = rows @ w + b0 - rows @ np.where(mask, 0.0, w)
        lsq, *_ = np.linalg.lstsq(np.ones((n, 1)), target, rcond=None)
        np.testing.assert_allclose(closed, lsq[0], rtol=1e-12, atol=1e-12)
