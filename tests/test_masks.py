import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prunekit import (
    SparsitySpec,
    WeightLayer,
    apply_mask,
    build_mask,
    mask_violation,
)
from prunekit.errors import IndivisibleGroup, InvalidRatio, ShapeMismatch


def pruned_rows(mask, col=0):
    return set(np.flatnonzero(mask[:, col]))


def test_unstructured_prunes_lowest_half():
    scores = np.array([[1.0], [5.0], [4.0], [2.0]])
    mask = build_mask(scores, SparsitySpec(ratio=0.5))
    assert pruned_rows(mask) == {0, 3}


def test_structured_group_prunes_lowest_two():
    scores = np.array([[0.9], [0.1], [0.5], [0.7]])
    mask = build_mask(scores, SparsitySpec(n=2, m=4))
    assert pruned_rows(mask) == {1, 2}


def test_boundary_ratios():
    scores = np.random.default_rng(0).random((6, 3))
    assert not build_mask(scores, SparsitySpec(ratio=0.0)).any()
    assert build_mask(scores, SparsitySpec(ratio=1.0)).all()


def test_floor_semantics():
    scores = np.random.default_rng(1).random((10, 2))
    mask = build_mask(scores, SparsitySpec(ratio=0.35))
    assert (mask.sum(axis=0) == 3).all()


def test_ties_prune_lowest_index_first():
    scores = np.zeros((4, 2))
    mask = build_mask(scores, SparsitySpec(ratio=0.5))
    assert pruned_rows(mask, 0) == {0, 1} and pruned_rows(mask, 1) == {0, 1}
    mask = build_mask(np.zeros((8, 1)), SparsitySpec(n=2, m=4))
    assert pruned_rows(mask) == {0, 1, 4, 5}


def test_structured_groups_are_contiguous_per_column():
    rng = np.random.default_rng(3)
    scores = rng.random((8, 5))
    mask = build_mask(scores, SparsitySpec(n=2, m=4))
    grouped = mask.reshape(2, 4, 5)
    assert (grouped.sum(axis=1) == 2).all()
    for g in range(2):
        for col in range(5):
            chunk = scores[4 * g : 4 * g + 4, col]
            expected = set(np.argsort(chunk, kind="stable")[:2])
            assert set(np.flatnonzero(grouped[g, :, col])) == expected


def test_indivisible_group_rejected():
    with pytest.raises(IndivisibleGroup):
        build_mask(np.ones((6, 2)), SparsitySpec(n=2, m=4))


def test_spec_validation():
    with pytest.raises(InvalidRatio):
        SparsitySpec(ratio=1.5)
    with pytest.raises(InvalidRatio):
        SparsitySpec(ratio=-0.1)
    with pytest.raises(InvalidRatio):
        SparsitySpec(n=4, m=4)
    with pytest.raises(InvalidRatio):
        SparsitySpec(n=0, m=4)
    with pytest.raises(InvalidRatio):
        SparsitySpec()
    # Counts are integers, numpy integers included, but never bools.
    with pytest.raises(InvalidRatio):
        SparsitySpec(n=True, m=4)
    numpy_counts = SparsitySpec(n=np.int64(2), m=np.int64(4))
    assert numpy_counts == SparsitySpec(n=2, m=4)
    assert str(numpy_counts) == "2:4"
    # A ratio is a number (tests/test_errors.py pins bools and numpy floats),
    # stored as a float.
    for bad in (float("nan"), "0.5"):
        with pytest.raises(InvalidRatio):
            SparsitySpec(ratio=bad)
    assert type(SparsitySpec(ratio=np.float32(0.5)).ratio) is float
    assert str(SparsitySpec(ratio=1)) == "1"


def test_spec_parse_and_str():
    assert SparsitySpec.parse("0.5") == SparsitySpec(ratio=0.5)
    assert SparsitySpec.parse("2:4") == SparsitySpec(n=2, m=4)
    assert str(SparsitySpec.parse("4:8")) == "4:8"
    assert str(SparsitySpec.parse("0.25")) == "0.25"
    with pytest.raises(InvalidRatio):
        SparsitySpec.parse("abc")
    with pytest.raises(InvalidRatio):
        SparsitySpec.parse("2:x")


def test_validate_built_masks():
    rng = np.random.default_rng(5)
    scores = rng.random((8, 4))
    for spec in (SparsitySpec(ratio=0.25), SparsitySpec(n=2, m=4),
                 SparsitySpec(n=4, m=8)):
        assert mask_violation(build_mask(scores, spec), spec) is None


def test_validate_detects_overfull_group():
    mask = np.zeros((4, 1), dtype=bool)
    mask[:3, 0] = True
    spec = SparsitySpec(n=2, m=4)
    assert mask_violation(mask, spec) is not None
    assert "group 0" in mask_violation(mask, spec)


def test_validate_detects_count_mismatch():
    mask = np.zeros((4, 2), dtype=bool)
    mask[0, 1] = True
    spec = SparsitySpec(ratio=0.5)
    assert mask_violation(mask, spec) is not None
    assert "column 0" in mask_violation(mask, spec)


def test_violation_names_group_and_column():
    mask = np.zeros((8, 3), dtype=bool)
    mask[:5, 2] = True
    assert mask_violation(mask, SparsitySpec(ratio=0.5)).startswith(
        "group 0 of column 0: 0 pruned, expected 4")
    assert mask_violation(mask, SparsitySpec(n=2, m=4)).startswith(
        "group 0 of column 0: 0 pruned, expected 2")
    assert "not divisible" in mask_violation(mask, SparsitySpec(n=2, m=3))
    assert (mask_violation(mask[:, 0], SparsitySpec(ratio=0.5))
            == "mask must be 2-D, got 1-D")


@pytest.mark.parametrize("shape", [(8, 0), (0, 3)])
def test_zero_size_scores(shape):
    for spec in (SparsitySpec(ratio=0.5), SparsitySpec(n=2, m=4)):
        mask = build_mask(np.zeros(shape), spec)
        assert mask.shape == shape and not mask.any()
        assert mask_violation(mask, spec) is None


def test_apply_mask_identity():
    w = np.random.default_rng(7).standard_normal((5, 3))
    layer = WeightLayer(w, None, centered=False)
    out = apply_mask(layer, np.zeros((5, 3), dtype=bool))
    assert np.array_equal(out.weights, w)


def test_apply_mask_all_true_zeroes_everything():
    layer = WeightLayer(np.ones((3, 2)), np.ones(2), centered=False)
    out = apply_mask(layer, np.ones((3, 2), dtype=bool))
    assert not out.weights.any()
    assert np.array_equal(out.bias, np.ones(2))


def test_apply_mask_survivor_count():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((6, 4))
    mask = rng.random((6, 4)) < 0.3
    out = apply_mask(WeightLayer(w, None, centered=False), mask)
    assert np.count_nonzero(out.weights) == w.size - mask.sum()
    assert np.array_equal(out.weights[~mask], w[~mask])


def test_apply_mask_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        apply_mask(WeightLayer(np.ones((2, 2)), None, False),
                   np.zeros((3, 2), dtype=bool))


def test_determinism():
    scores = np.random.default_rng(11).random((16, 8))
    spec = SparsitySpec(n=4, m=8)
    masks = [build_mask(scores, spec) for _ in range(3)]
    assert all(np.array_equal(masks[0], m) for m in masks)


score_elems = st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 24), st.integers(1, 6)),
              elements=score_elems),
       st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
def test_unstructured_masks_always_valid(scores, ratio):
    spec = SparsitySpec(ratio=ratio)
    assert mask_violation(build_mask(scores, spec), spec) is None


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.sampled_from([8, 16, 24]), st.integers(1, 5)),
              elements=score_elems),
       st.sampled_from([(1, 2), (2, 4), (4, 8)]))
def test_structured_masks_always_valid(scores, pattern):
    spec = SparsitySpec(n=pattern[0], m=pattern[1])
    assert mask_violation(build_mask(scores, spec), spec) is None


# Scores on a coarse grid so the transforms below cannot collapse distinct
# values into new ties through rounding; strict monotonicity is preserved.
grid_scores = arrays(np.int64, st.tuples(st.sampled_from([8, 16]), st.integers(1, 4)),
                     elements=st.integers(0, 100_000)).map(lambda a: a / 1000.0)


@settings(max_examples=60, deadline=None)
@given(grid_scores, st.sampled_from(["unstructured", "structured"]))
def test_monotone_transform_leaves_mask_unchanged(scores, kind):
    spec = (SparsitySpec(ratio=0.5) if kind == "unstructured"
            else SparsitySpec(n=2, m=4))
    base = build_mask(scores, spec)
    for transform in (lambda s: 3.0 * s + 7.0, np.expm1, np.arctan):
        assert np.array_equal(build_mask(transform(scores), spec), base)


def stable_sort_mask(scores, spec):
    """Reference: the first k entries of a stable argsort of each group."""
    m_in, h = scores.shape
    if spec.ratio is not None:
        count, size, k = 1, m_in, int(np.floor(spec.ratio * m_in))
    else:
        count, size, k = m_in // spec.m, spec.m, spec.n
    mask = np.zeros(scores.shape, dtype=bool)
    if k:
        grouped = scores.reshape(count, size, h)
        order = np.argsort(grouped, axis=1, kind="stable")
        np.put_along_axis(mask.reshape(grouped.shape), order[:, :k, :], True, axis=1)
    return mask


# Group sizes on both sides of the rank/partition cutoff (16 entries).
PATTERNS = [(1, 2), (2, 4), (4, 8), (8, 16), (16, 32)]


@st.composite
def selection_cases(draw):
    spec = draw(st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]).map(SparsitySpec),
        st.floats(0.0, 1.0).map(SparsitySpec),
        st.sampled_from(PATTERNS).map(lambda p: SparsitySpec(n=p[0], m=p[1]))))
    rows = (draw(st.integers(0, 80)) if spec.ratio is not None
            else spec.m * draw(st.integers(0, 3)))
    # Column counts around the 64-column partition block.
    cols = draw(st.sampled_from([0, 1, 2, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["half-integer", "all-equal", "signed-zero", "normal"]))
    if kind == "half-integer":
        scores = rng.integers(-4, 5, (rows, cols)) / 2.0
    elif kind == "all-equal":
        scores = np.repeat(rng.integers(-2, 3, (1, cols)) / 2.0, rows, axis=0)
    elif kind == "signed-zero":
        scores = rng.choice([0.0, -0.0, 0.5], size=(rows, cols))
    else:
        scores = rng.standard_normal((rows, cols))
    return scores, spec


@settings(max_examples=300, deadline=None)
@given(selection_cases())
def test_selection_matches_stable_sort(case):
    scores, spec = case
    assert np.array_equal(build_mask(scores, spec), stable_sort_mask(scores, spec))


@pytest.mark.parametrize("shape", [(8, 1), (1, 8), (64, 1), (64, 3), (130, 70)])
def test_build_mask_leaves_scores_unchanged(shape):
    # One-column input is where a contiguous view of the scores could be
    # partitioned in place; tied scores also run the tie-breaking branch.
    scores = np.random.default_rng(13).integers(0, 4, shape) / 2.0
    before = scores.copy()
    specs = [SparsitySpec(ratio=0.5)] + [
        SparsitySpec(n=n, m=m) for n, m in [(1, 2), (16, 32)]
        if shape[0] % m == 0]
    for spec in specs:
        build_mask(scores, spec)
        assert np.array_equal(scores, before)
