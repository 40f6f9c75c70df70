import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prunekit import (
    stats_centered_l2,
    stats_from_container,
    stats_init,
    stats_l2,
    stats_merge,
    stats_to_container,
    stats_update,
)
from prunekit.container import TensorContainer
from prunekit.errors import (
    DimensionMismatch,
    EmptyStats,
    InvalidDimension,
    InvariantViolation,
    NonFiniteInput,
)
from prunekit.stats import ColumnStats


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


def test_l2_three_four_five():
    s = accumulate([np.array([[3.0], [4.0]])], 1)
    assert stats_l2(s)[0] == pytest.approx(5.0, rel=1e-12)


def test_l2_zero_feature():
    s = accumulate([np.zeros((4, 1))], 1)
    assert stats_l2(s)[0] == 0.0


def test_l2_single_row_abs():
    s = accumulate([np.array([[-2.5]])], 1)
    assert stats_l2(s)[0] == pytest.approx(2.5)


def test_centered_l2_symmetric_pair():
    s = accumulate([np.array([[1.0], [-1.0]])], 1)
    assert stats_centered_l2(s)[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_centered_l2_constant_feature():
    s = accumulate([np.array([[10.0], [10.0]])], 1)
    assert stats_centered_l2(s)[0] == 0.0


def test_centered_l2_requires_rows():
    with pytest.raises(EmptyStats):
        stats_centered_l2(stats_init(2))


def test_centered_l2_equals_l2_on_centered_data():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((50, 6)) * rng.uniform(0.5, 3.0, size=6)
    rows = rows - rows.mean(axis=0)
    s = accumulate([rows], 6)
    np.testing.assert_allclose(stats_centered_l2(s), stats_l2(s),
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


def test_container_round_trip():
    rows = np.random.default_rng(11).uniform(-4, 4, size=(33, 5))
    s = accumulate([rows], 5)
    c = TensorContainer()
    stats_to_container(c, "fc", s)
    back = stats_from_container(c, "fc")
    assert back.n == s.n
    # f32 storage precision
    np.testing.assert_allclose(back.mean, s.mean, rtol=1e-6)
    np.testing.assert_allclose(back.sumsq, s.sumsq, rtol=1e-6)


def test_container_refuses_a_count_float32_cannot_store():
    zeros = np.zeros(2)
    c = TensorContainer()
    stats_to_container(c, "a", ColumnStats(2**24, zeros, zeros, zeros))
    assert stats_from_container(c, "a").n == 2**24
    with pytest.raises(InvariantViolation, match=r"2\*\*24"):
        stats_to_container(c, "b", ColumnStats(2**24 + 1, zeros, zeros, zeros))


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
