import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prunekit import (
    compute_scores,
    stats_init,
    stats_merge,
    stats_update,
)
from prunekit.errors import (
    DimensionMismatch,
    EmptyStats,
    InvalidDimension,
    NonFiniteInput,
)
import prunekit.stats as stats_module
from prunekit.stats import ColumnStats, _summarize


def two_pass(rows):
    """Independent reference: plain two-pass moments over the whole stream."""
    rows = np.asarray(rows, dtype=np.float64)
    mean = rows.mean(axis=0)
    var = rows.var(axis=0, ddof=1) if rows.shape[0] > 1 else np.zeros(rows.shape[1])
    return mean, var, (rows**2).sum(axis=0)


def accumulate(batches, m):
    s = stats_init(m)
    for batch in batches:
        s = stats_update(s, batch)
    return s


def test_init_zeroed():
    s = stats_init(3)
    assert s.n == 0
    assert np.array_equal(s.mean, [0, 0, 0])
    assert np.array_equal(s.variance(), [0, 0, 0])
    assert np.array_equal(s.sumsq, [0, 0, 0])


def test_init_single_feature():
    s = stats_init(1)
    assert s.n == 0 and np.array_equal(s.variance(), [0])


def test_init_rejects_nonpositive():
    with pytest.raises(InvalidDimension):
        stats_init(0)
    with pytest.raises(InvalidDimension):
        stats_init(-2)


def test_two_batch_stream_matches_two_pass():
    s = accumulate([np.array([[1.0], [2.0], [3.0]]), np.array([[5.0]])], 1)
    mean, var, sumsq = two_pass([[1.0], [2.0], [3.0], [5.0]])
    assert s.n == 4
    assert s.mean[0] == pytest.approx(2.75, rel=1e-12)
    assert s.variance()[0] == pytest.approx(var[0], rel=1e-12)
    assert var[0] == pytest.approx(2.9166666666666665)
    assert s.sumsq[0] == pytest.approx(sumsq[0], rel=1e-12)


def test_constant_batch_zero_variance():
    s = accumulate([np.full((3, 1), 4.25)], 1)
    assert s.mean[0] == 4.25
    assert s.variance()[0] == 0.0


def test_empty_batch_is_identity():
    s = accumulate([np.array([[1.0, 2.0]]), np.empty((0, 2))], 2)
    assert s.n == 1
    assert np.array_equal(s.mean, [1.0, 2.0])


def test_single_row_variance_zero():
    s = accumulate([np.array([[7.0]])], 1)
    assert s.n == 1 and s.variance()[0] == 0.0


def test_width_mismatch():
    with pytest.raises(DimensionMismatch):
        stats_update(stats_init(2), np.ones((3, 4)))


def test_non_finite_rejected():
    with pytest.raises(NonFiniteInput):
        stats_update(stats_init(1), np.array([[np.nan]]))


@pytest.mark.parametrize("rows", [
    [[1e160, 1.0], [-1e160, 2.0]],  # finite rows whose squares overflow
    [[1e308, 1.0], [1e308, 2.0]],  # a column sum that overflows the mean
], ids=["sumsq", "mean"])
def test_overflowing_moments_are_typed_error(rows):
    with pytest.raises(NonFiniteInput, match="overflow"):
        stats_update(stats_init(2), rows)


def factor(tag, s):
    """Criterion ``tag``'s per-feature factor: its score of unit weights."""
    return compute_scores(tag, np.ones((s.m, 1)), stats=s)[:, 0]


def test_l2_three_four_five():
    s = accumulate([np.array([[3.0], [4.0]])], 1)
    assert factor("wanda", s)[0] == pytest.approx(5.0, rel=1e-12)


def test_l2_zero_feature():
    s = accumulate([np.zeros((4, 1))], 1)
    assert factor("wanda", s)[0] == 0.0


def test_l2_single_row_abs():
    s = accumulate([np.array([[-2.5]])], 1)
    assert factor("wanda", s)[0] == pytest.approx(2.5)


def test_centered_l2_symmetric_pair():
    s = accumulate([np.array([[1.0], [-1.0]])], 1)
    assert factor("stade", s)[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_centered_l2_constant_feature():
    s = accumulate([np.array([[10.0], [10.0]])], 1)
    assert factor("stade", s)[0] == 0.0


def test_centered_l2_requires_rows():
    with pytest.raises(EmptyStats):
        compute_scores("stade", np.ones((2, 1)), stats=stats_init(2))


def test_centered_l2_equals_l2_on_centered_data():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((50, 6)) * rng.uniform(0.5, 3.0, size=6)
    rows = rows - rows.mean(axis=0)
    s = accumulate([rows], 6)
    np.testing.assert_allclose(factor("stade", s), factor("wanda", s),
                               rtol=1e-9, atol=1e-9)


def test_merge_matches_single_stream():
    rng = np.random.default_rng(3)
    rows = rng.uniform(-50, 50, size=(37, 4))
    a = accumulate([rows[:20]], 4)
    b = accumulate([rows[20:]], 4)
    merged = stats_merge(a, b)
    whole = accumulate([rows], 4)
    assert merged.n == whole.n
    np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(merged.variance(), whole.variance(),
                               rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(merged.sumsq, whole.sumsq, rtol=1e-9, atol=1e-9)


def test_merge_with_empty_accumulator():
    rows = np.random.default_rng(13).uniform(-7, 7, size=(9, 3))
    batch = accumulate([rows], 3)
    assert np.array_equal(batch.mean, rows.sum(axis=0) / 9)
    for merged in (stats_merge(batch, stats_init(3)),
                   stats_merge(stats_init(3), batch)):
        assert merged.n == 9
        # bit-for-bit: the empty side contributes nothing, not even roundoff
        assert merged.mean.tobytes() == batch.mean.tobytes()
        assert merged.m2.tobytes() == batch.m2.tobytes()
        assert merged.sumsq.tobytes() == batch.sumsq.tobytes()


def test_merge_with_empty_side_at_huge_offset():
    # |mean| above sqrt(float64 max) = 1.34e154: the batch's centered m2 is
    # exact, but its raw sum of squares overflows, so stats_update refuses
    # these rows and a merge with an empty side raises instead of returning
    # an accumulator with an infinite moment.
    rows = np.array([[1e160, 1.0], [1e160 + 1e145, 2.0], [1e160, 3.0]])
    mean = rows.mean(axis=0)
    m2 = ((rows - mean) ** 2).sum(axis=0)
    with pytest.raises(NonFiniteInput):
        stats_update(stats_init(2), rows)
    with np.errstate(over="ignore"):
        batch = _summarize(rows)
    np.testing.assert_allclose(batch.m2, m2, rtol=1e-12)
    assert np.isfinite(compute_scores("stade", np.ones((2, 1)), stats=batch)).all()
    for a, b in ((batch, stats_init(2)), (stats_init(2), batch)):
        with pytest.raises(NonFiniteInput, match="overflow"):
            stats_merge(a, b)


def test_merge_overflow_is_typed_error_without_warning():
    # Each side is finite; the cross term and the raw sum of squares are not.
    a = stats_update(stats_init(1), [[1.3e154]])
    b = stats_update(stats_init(1), [[-1.3e154]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="overflow"):
            stats_merge(a, b)


@pytest.mark.parametrize("mu, sigma", [(3e4, 1e-3), (1e4, 1e-2)])
def test_large_offset_features_keep_their_variance(mu, sigma):
    # Near-constant features with a large offset, stored as float32 like
    # calibration payloads: raw moments cancel catastrophically here.
    rng = np.random.default_rng(29)
    rows = (mu + sigma * rng.standard_normal((4096, 3))).astype(np.float32)
    rows = rows.astype(np.float64)
    expected = rows.var(axis=0, ddof=1)
    assert (expected > 0).all()
    shards = stats_merge(accumulate([rows[:1500]], 3), accumulate([rows[1500:]], 3))
    for s in (accumulate([rows], 3), accumulate(np.array_split(rows, 16), 3), shards):
        assert s.n == 4096
        np.testing.assert_allclose(s.variance(), expected, rtol=1e-9, atol=0)


def test_merge_width_mismatch():
    with pytest.raises(DimensionMismatch):
        stats_merge(stats_init(2), stats_init(3))


bounded = st.floats(min_value=-100.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def stream_and_cuts(draw):
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 5))
    rows = draw(arrays(np.float64, (n, m), elements=bounded))
    k = draw(st.integers(0, 6))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=k, max_size=k)))
    return rows, [0, *cuts, n]


@settings(max_examples=80, deadline=None)
@given(stream_and_cuts())
def test_streaming_equivalence_any_partition(data):
    rows, bounds = data
    batches = [rows[a:b] for a, b in zip(bounds, bounds[1:])]
    s = accumulate(batches, rows.shape[1])
    mean, var, sumsq = two_pass(rows)
    assert s.n == rows.shape[0]
    np.testing.assert_allclose(s.mean, mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(s.variance(), np.maximum(var, 0.0),
                               rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(s.sumsq, sumsq, rtol=1e-9, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 40), st.integers(1, 4)),
              elements=bounded))
def test_batch_order_invariance(rows):
    mid = rows.shape[0] // 2
    batches = [rows[:mid], rows[mid:]]
    forward = accumulate(batches, rows.shape[1])
    backward = accumulate(batches[::-1], rows.shape[1])
    np.testing.assert_allclose(forward.mean, backward.mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(forward.variance(), backward.variance(),
                               rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(forward.sumsq, backward.sumsq, rtol=1e-9, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 50), st.integers(1, 4)),
              elements=bounded))
def test_pythagorean_identity(rows):
    s = accumulate([rows], rows.shape[1])
    n = s.n
    recombined = (n - 1) * s.variance() + n * s.mean**2
    np.testing.assert_allclose(s.sumsq, recombined,
                               rtol=1e-7, atol=1e-7 * max(1.0, s.sumsq.max()))


def _summarize_whole(rows):
    """Test-local copy of the whole-batch summary, widened at once, that the
    blocked one reproduces bit for bit within its stated domain."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    mean = rows.sum(axis=0) / max(n, 1)
    tmp = np.multiply(rows, rows)
    sumsq = tmp.sum(axis=0)
    np.subtract(rows, mean, out=tmp)
    tmp *= tmp
    return ColumnStats(n=n, mean=mean, m2=tmp.sum(axis=0), sumsq=sumsq)


def _assert_same_bits(got, want):
    assert got.n == want.n
    for field in ("mean", "m2", "sumsq"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


def _batch(seed, n, m, dtype):
    # Offsets that dwarf some spreads, and exact zeros of both signs.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 2, m)
    rows = rng.uniform(-50, 50, m) + scale * rng.standard_normal((n, m))
    zeros = rng.random((n, m))
    rows[zeros < 0.05] = -0.0
    rows[zeros > 0.95] = 0.0
    return rows.astype(dtype)


_DTYPES = st.sampled_from([np.float32, np.float64])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.integers(1, 9), blocks=st.integers(2, 6),
       extra=st.integers(0, 8), m=st.integers(2, 40), dtype=_DTYPES)
def test_blocked_summary_matches_whole_batch_bits(seed, block, blocks, extra, m, dtype):
    # A C-contiguous batch of two or more columns over several blocks.
    rows = _batch(seed, block * blocks + extra % block, m, dtype)
    with mock.patch.object(stats_module, "_BLOCK_ROWS", block):
        got = stats_update(stats_init(m), rows)
    _assert_same_bits(got, stats_merge(stats_init(m), _summarize_whole(rows)))


_LAYOUTS = {
    "C": lambda x: x,
    "F": np.asfortranarray,
    "every other column": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
    "every other row": lambda x: np.repeat(x, 2, axis=0)[::2],
    "transposed": lambda x: np.ascontiguousarray(x.T).T,
}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, stats_module._BLOCK_ROWS),
       m=st.integers(1, 12), dtype=_DTYPES, layout=st.sampled_from(sorted(_LAYOUTS)))
def test_one_block_summary_matches_whole_batch_in_any_layout(seed, n, m, dtype, layout):
    rows = _LAYOUTS[layout](_batch(seed, n, m, dtype))
    _assert_same_bits(stats_update(stats_init(m), rows),
                      stats_merge(stats_init(m), _summarize_whole(rows)))


def test_float32_blocks_are_widened_before_they_are_squared():
    # 1 + 2**-12 squares exactly in float64 but rounds in float32, so a
    # square taken before the widening shows in sumsq.
    rows = np.full((9, 2), 1 + 2.0**-12, dtype=np.float32)
    assert np.square(rows)[0, 0] != np.square(rows.astype(np.float64))[0, 0]
    with mock.patch.object(stats_module, "_BLOCK_ROWS", 2):
        got = stats_update(stats_init(2), rows)
    _assert_same_bits(got, stats_update(stats_init(2), rows.astype(np.float64)))
    _assert_same_bits(got, stats_merge(stats_init(2), _summarize_whole(rows)))


def _narrow_rows(dtype, n, m, seed=0):
    """Rows of a dtype narrower than float64: integers, halves or booleans."""
    rng = np.random.default_rng(seed)
    if dtype == np.bool_:
        return rng.random((n, m)) < 0.3
    if dtype == np.int16:
        return rng.integers(-3000, 3000, (n, m), dtype=np.int16)
    return (rng.uniform(-20, 20, m) + rng.standard_normal((n, m))).astype(dtype)


@pytest.mark.parametrize("dtype", [np.int16, np.float16, np.bool_])
@pytest.mark.parametrize("n", [3, 9, 10])
def test_any_dtype_summarizes_like_its_float64_cast(dtype, n):
    # Kept in their own dtype until each block is widened; blocks of 4 rows.
    rows = _narrow_rows(dtype, n, 5)
    with mock.patch.object(stats_module, "_BLOCK_ROWS", 4):
        got = stats_update(stats_init(5), rows)
        _assert_same_bits(got, stats_update(stats_init(5), rows.astype(np.float64)))


@pytest.mark.parametrize("row", [0, 3, 8])
def test_non_finite_row_in_any_block_is_typed_error(row):
    rows = np.ones((9, 2), dtype=np.float32)
    rows[row, 1] = np.nan
    with mock.patch.object(stats_module, "_BLOCK_ROWS", 2):
        with pytest.raises(NonFiniteInput):
            stats_update(stats_init(2), rows)
