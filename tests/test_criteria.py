import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import (
    Criterion,
    GramAccumulator,
    SparsitySpec,
    WeightLayer,
    build_mask,
    compute_scores,
    select_criterion,
    stats_init,
    stats_update,
)
from prunekit.errors import (
    DimensionMismatch,
    EmptyStats,
    InsufficientSamples,
    InvalidArgument,
    InvalidDimension,
    NonFiniteInput,
    SingularGram,
)
from prunekit.container import _Slot
from prunekit.criteria import CRITERION_RULES


def stats_of(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return stats_update(stats_init(rows.shape[1]), rows)


def test_magnitude_absolute_value():
    scores = compute_scores("magnitude", np.array([[-3.0], [2.0]]))
    assert np.array_equal(scores, [[3.0], [2.0]])


def test_magnitude_zero_weights():
    assert np.array_equal(compute_scores("magnitude", np.zeros((3, 2))), np.zeros((3, 2)))


def test_magnitude_sign_flip_invariant():
    w = np.random.default_rng(0).standard_normal((4, 3))
    assert np.array_equal(compute_scores("magnitude", w), compute_scores("magnitude", -w))


def test_magnitude_rejects_nan():
    with pytest.raises(NonFiniteInput):
        compute_scores("magnitude", np.array([[np.nan]]))


def test_wanda_norm_times_weight():
    s = stats_of([[3.0], [4.0]])
    scores = compute_scores("wanda", np.array([[2.0]]), stats=s)
    assert scores[0, 0] == pytest.approx(10.0, rel=1e-12)


def test_wanda_zero_weight_scores_zero():
    s = stats_of([[3.0], [4.0]])
    assert compute_scores("wanda", np.array([[0.0]]), stats=s)[0, 0] == 0.0


def test_wanda_constant_feature():
    s = stats_of([[10.0], [10.0]])
    scores = compute_scores("wanda", np.array([[0.5]]), stats=s)
    assert scores[0, 0] == pytest.approx(np.sqrt(200.0) * 0.5, rel=1e-12)


def test_wanda_requires_rows():
    with pytest.raises(EmptyStats):
        compute_scores("wanda", np.ones((1, 1)), stats=stats_init(1))


def test_wanda_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compute_scores("wanda", np.ones((2, 1)), stats=stats_of([[1.0]]))


def test_stade_centered_norm_times_weight():
    s = stats_of([[1.0], [-1.0]])
    scores = compute_scores("stade", np.array([[3.0]]), stats=s)
    assert scores[0, 0] == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-12)


def test_stade_constant_feature_scores_zero():
    s = stats_of([[10.0], [10.0]])
    assert compute_scores("stade", np.array([[0.5]]), stats=s)[0, 0] == 0.0


def test_stade_rejects_single_row():
    with pytest.raises(InsufficientSamples):
        compute_scores("stade", np.ones((1, 1)), stats=stats_of([[1.0]]))


def test_stade_equals_wanda_after_exact_centering():
    rng = np.random.default_rng(5)
    rows = rng.uniform(-4, 4, size=(60, 8)) * rng.uniform(0.1, 5.0, size=8)
    rows = rows - rows.mean(axis=0)
    w = rng.standard_normal((8, 6))
    s = stats_of(rows)
    np.testing.assert_allclose(compute_scores("stade", w, stats=s), compute_scores("wanda", w, stats=s),
                               rtol=1e-9, atol=1e-9)


def test_stade_star_second_moment_oracle():
    # Expected value from a direct two-pass second moment, independent of
    # the accumulator path.
    rows = np.array([[1.0], [4.0], [7.0]])
    w = np.array([[2.0]])
    expected = np.sqrt(np.mean(rows**2)) * 2.0
    got = compute_scores("stade-star", w, stats=stats_of(rows))[0, 0]
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(2.0 * np.sqrt(22.0), rel=1e-12)


def test_stade_star_constant_feature_keeps_mean_term():
    s = stats_of([[10.0], [10.0]])
    scores = compute_scores("stade-star", np.array([[0.5]]), stats=s)
    assert scores[0, 0] == pytest.approx(5.0, rel=1e-12)


def test_stade_star_ranks_like_stade_on_centered_data():
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((40, 10)) * rng.uniform(0.2, 3.0, size=10)
    rows = rows - rows.mean(axis=0)
    w = rng.standard_normal((10, 4))
    s = stats_of(rows)
    a = np.argsort(compute_scores("stade-star", w, stats=s), axis=0, kind="stable")
    b = np.argsort(compute_scores("stade", w, stats=s), axis=0, kind="stable")
    assert np.array_equal(a, b)


def test_stade_star_rejects_single_row():
    with pytest.raises(InsufficientSamples):
        compute_scores("stade-star", np.ones((1, 1)), stats=stats_of([[3.0]]))


def test_sparsegpt_identity_gram():
    g = GramAccumulator(1)
    g.gram = np.eye(1)
    scores = compute_scores("sparsegpt-score", np.array([[2.0]]), gram=g, damping=0.0)
    assert scores[0, 0] == pytest.approx(4.0, rel=1e-12)


def test_sparsegpt_diagonal_gram_closed_form():
    g = GramAccumulator(2)
    g.gram = np.diag([4.0, 1.0])
    scores = compute_scores("sparsegpt-score", np.array([[1.0], [1.0]]), gram=g,
                            damping=0.0)
    np.testing.assert_allclose(scores[:, 0], [4.0, 1.0], rtol=1e-12)


def test_sparsegpt_matches_dense_inverse():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((20, 8))
    g = GramAccumulator(8)
    g.update(a)
    lam = 0.3
    w = np.ones((8, 1))
    scores = compute_scores("sparsegpt-score", w, gram=g, damping=lam)
    dense_diag = np.diag(np.linalg.inv(g.gram + lam * np.eye(8)))
    np.testing.assert_allclose(1.0 / scores[:, 0], dense_diag, rtol=1e-5)


def test_sparsegpt_auto_damping_rescues_rank_deficiency():
    rows = np.ones((5, 3))  # rank-1 Gram
    g = GramAccumulator(3)
    g.update(rows)
    with pytest.raises(SingularGram):
        compute_scores("sparsegpt-score", np.ones((3, 1)), gram=g, damping=0.0)
    scores = compute_scores("sparsegpt-score", np.ones((3, 1)), gram=g,
                            damping="auto")
    assert np.isfinite(scores).all() and (scores > 0).all()


def _score_sparsegpt_reference(weights, gram, damping):
    """The diagonal by solving against eye(m), as sparsegpt-score computed it
    before it took the column norms of the inverse Cholesky factor."""
    m = gram.shape[0]
    lam = 0.01 * float(np.mean(np.diag(gram))) if damping == "auto" else damping
    factor = scipy.linalg.cho_factor(gram + lam * np.eye(m), lower=True,
                                     check_finite=False)
    inverse = scipy.linalg.cho_solve(factor, np.eye(m), check_finite=False)
    return weights**2 / np.diag(inverse)[:, None]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), groups=st.integers(1, 32),
       h=st.integers(1, 8), damping=st.one_of(st.just("auto"), st.floats(0.0, 10.0)))
def test_sparsegpt_matches_the_eye_solve_reference(seed, groups, h, damping):
    rng = np.random.default_rng(seed)
    m = 4 * groups  # so that 2:4 groups tile the inputs
    rows = rng.standard_normal((int(rng.integers(2 * m, 4 * m + 1)), m))
    rows *= rng.uniform(0.5, 2.0, m)
    g = GramAccumulator(m)
    g.update(rows)
    w = rng.standard_normal((m, h))
    scores = compute_scores("sparsegpt-score", w, gram=g, damping=damping)
    reference = _score_sparsegpt_reference(w, g.gram, damping)
    np.testing.assert_allclose(scores, reference, rtol=1e-12, atol=0.0)
    for spec in (SparsitySpec(n=2, m=4), SparsitySpec(ratio=0.5)):
        assert np.array_equal(build_mask(scores, spec), build_mask(reference, spec))


def _gram_update_reference(gram, rows):
    """GramAccumulator.update's sum before it reused its product's buffer."""
    g = gram + rows.T @ rows
    return (g + g.T) / 2.0


# Row layouts whose product x.T @ x BLAS returns exactly symmetric, so the
# sum kept as it comes has the mirrored reference's bits.
_GRAM_LAYOUTS = {
    "float32": lambda x: x.astype(np.float32),
    "C": lambda x: x,
    "F": np.asfortranarray,
    "every other row": lambda x: np.repeat(x, 2, axis=0)[::2],
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
       batches=st.lists(st.integers(0, 50), min_size=1, max_size=4),
       layout=st.sampled_from(sorted(_GRAM_LAYOUTS)))
def test_gram_update_is_bit_identical_to_the_reference(seed, m, batches, layout):
    rng = np.random.default_rng(seed)
    g = GramAccumulator(m)
    reference = np.zeros((m, m))
    for n in batches:
        rows = rng.standard_normal((n, m)) * rng.uniform(0.1, 10.0, m) + rng.uniform(-3, 3, m)
        rows = _GRAM_LAYOUTS[layout](rows)
        g.update(rows)
        reference = _gram_update_reference(reference, np.asarray(rows, dtype=np.float64))
        assert g.gram.tobytes() == reference.tobytes()


@pytest.mark.parametrize("m", [1, 7, 40, 200])
def test_sparsegpt_on_column_strided_rows_matches_a_contiguous_copy(m):
    # Every other column of a wider array: BLAS may return this product a
    # last bit off its mirror, in the triangle the score does not read.
    rng = np.random.default_rng(m)
    rows = (rng.standard_normal((3 * m, 2 * m)) + rng.uniform(-3, 3, 2 * m))[:, ::2]
    grams = []
    for r in (rows, np.ascontiguousarray(rows)):
        g = GramAccumulator(m)
        g.update(r)
        grams.append(g)
    w = rng.standard_normal((m, 5))
    for damping in ("auto", 0.1):
        scores = [compute_scores("sparsegpt-score", w, gram=g, damping=damping)
                  for g in grams]
        np.testing.assert_allclose(scores[0], scores[1], rtol=1e-10, atol=0.0)


def test_sparsegpt_rejects_an_inverse_diagonal_that_is_not_finite():
    # dpotrf and dtrtri succeed on a subnormal Gram, but the inverse
    # diagonal, 1e320, overflows to infinity.
    g = GramAccumulator(2)
    g.update([[1e-160, 0.0], [0.0, 1e-160]])
    with pytest.raises(SingularGram, match="inverse diagonal is not strictly positive"):
        compute_scores("sparsegpt-score", np.ones((2, 2)), gram=g, damping=0.0)


def test_finite_gram_above_half_the_float64_range_is_kept():
    # 1.2e154 squared is 1.44e308: finite, though twice it is not.
    g = GramAccumulator(1)
    g.update([[1.2e154]])
    assert g.gram.tolist() == [[1.2e154 * 1.2e154]]
    scores = compute_scores("sparsegpt-score", np.ones((1, 1)), gram=g, damping=0.0)
    assert np.isfinite(scores).all()


@pytest.mark.parametrize("m", [-1, 0, 2.5, True])
def test_gram_width_must_be_a_positive_integer(m):
    with pytest.raises(InvalidDimension):
        GramAccumulator(m)
    with pytest.raises(InvalidDimension):
        stats_init(m)


def test_gram_accumulator_symmetric():
    g = GramAccumulator(4)
    g.update(np.random.default_rng(2).standard_normal((30, 4)))
    assert np.abs(g.gram - g.gram.T).max() <= 1e-9
    assert (np.diag(g.gram) >= 0).all()


def test_gram_width_check():
    with pytest.raises(DimensionMismatch):
        GramAccumulator(3).update(np.ones((2, 4)))


def test_gram_overflow_is_typed_error_and_keeps_the_sum():
    g = GramAccumulator(2)
    g.update([[1.0, 2.0]])
    with pytest.raises(NonFiniteInput, match="overflow"):
        g.update([[1e160, 1.0], [-1e160, 2.0]])
    np.testing.assert_array_equal(g.gram, [[1.0, 2.0], [2.0, 4.0]])


def test_select_criterion_resolves_stade_w():
    centered = WeightLayer(np.ones((2, 2)), None, centered=True)
    uncentered = WeightLayer(np.ones((2, 2)), None, centered=False)
    assert select_criterion(Criterion("stade-w"), centered) == "wanda"
    assert select_criterion(Criterion("stade-w"), uncentered) == "stade"
    assert select_criterion(Criterion("magnitude"), centered) == "magnitude"
    assert select_criterion(Criterion("magnitude"), uncentered) == "magnitude"
    # Only resolved tags score: stade-w has no row of its own.
    stats = stats_update(stats_init(2), np.eye(2))
    with pytest.raises(InvalidArgument, match="unresolved criterion 'stade-w'"):
        compute_scores("stade-w", np.ones((2, 2)), stats=stats)


@pytest.mark.parametrize("bias_update", [True, False, None])
@pytest.mark.parametrize("centered", [True, False])
def test_stade_w_resolves_to_the_row_optimal_in_its_cell(centered, bias_update):
    # bias_update None is --bias-update auto: the resolved row's default.
    resolved = select_criterion(Criterion("stade-w"), _Slot("fc", "f32", (2, 2), centered),
                                bias_update)
    rule = CRITERION_RULES[resolved]
    refit = rule.bias_update if bias_update is None else bias_update
    assert rule.optimal_in[0] == ("centered" if centered else "uncentered")
    # On centered rows the refit moves no bias, so wanda covers both settings.
    assert centered or rule.optimal_in[1] == refit
    assert resolved == ("wanda" if centered else "stade" if refit else "stade-star")


def test_criterion_damping_validation():
    assert Criterion("sparsegpt-score").damping == "auto"
    with pytest.raises(ValueError):
        Criterion("wanda", damping=0.1)
    for bad in (-1.0, float("nan"), float("inf"), float("-inf"), True, "fast", 10**400):
        with pytest.raises(InvalidArgument):
            Criterion("sparsegpt-score", damping=bad)
    with pytest.raises(ValueError):
        Criterion("not-a-criterion")
    assert Criterion("sparsegpt-score", damping="auto").damping == "auto"


@pytest.mark.parametrize("damping", [-0.5, float("nan"), True, "fast",
                                     pytest.param(10**400, id="10**400")])
def test_score_sparsegpt_applies_the_damping_rule(damping):
    gram = GramAccumulator(3)
    gram.update(np.eye(3))
    with pytest.raises(InvalidArgument, match="damping"):
        compute_scores("sparsegpt-score", np.ones((3, 2)), gram=gram, damping=damping)


def test_scores_non_negative():
    rng = np.random.default_rng(13)
    rows = rng.uniform(-5, 5, size=(30, 6))
    w = rng.standard_normal((6, 5))
    s = stats_of(rows)
    for scores in (compute_scores("magnitude", w), compute_scores("wanda", w, stats=s),
                   compute_scores("stade", w, stats=s), compute_scores("stade-star", w, stats=s)):
        assert (scores >= 0).all() and np.isfinite(scores).all()


def test_column_scaling_covariance():
    rng = np.random.default_rng(17)
    rows = rng.uniform(-3, 3, size=(40, 5))
    w = rng.standard_normal((5, 4))
    alpha = 2.75
    scaled = rows.copy()
    scaled[:, 2] *= alpha
    s0, s1 = stats_of(rows), stats_of(scaled)
    for tag in ("wanda", "stade"):
        base = compute_scores(tag, w, stats=s0)
        scaled_scores = compute_scores(tag, w, stats=s1)
        np.testing.assert_allclose(scaled_scores[2], alpha * base[2],
                                   rtol=1e-9, atol=1e-12)
        others = [j for j in range(5) if j != 2]
        np.testing.assert_allclose(scaled_scores[others], base[others],
                                   rtol=1e-9, atol=1e-12)


def test_stade_argmin_matches_empirical_objective():
    # The squared score divided by (n-1) is the per-candidate variance
    # objective; argmins must coincide on every column.
    rng = np.random.default_rng(23)
    for _ in range(20):
        rows = rng.uniform(-5, 5, size=(30, 7)) * rng.uniform(0.1, 2.0, size=7)
        w = rng.uniform(-1, 1, size=(7, 3))
        s = stats_of(rows)
        scores = compute_scores("stade", w, stats=s)
        objective = rows.var(axis=0, ddof=1)[:, None] * w**2
        assert np.array_equal(np.argmin(scores, axis=0),
                              np.argmin(objective, axis=0))


class _Tagged(np.ndarray):
    """An ndarray subclass: ``np.asarray`` of it is a view, not a copy."""


def test_scoring_never_writes_the_callers_weights():
    # A scorer computes in the weights' widened copy only when it made one;
    # each array here is float64 already (or shares memory with one).
    rng = np.random.default_rng(12)
    base = rng.standard_normal((12, 10))
    stats = stats_of(rng.uniform(-3, 3, 12) + rng.standard_normal((40, 12)))
    gram = GramAccumulator(12)
    gram.update(rng.standard_normal((40, 12)))
    for weights in (base, np.asfortranarray(base), base[:, ::2], base.view(_Tagged)):
        before = weights.tobytes()
        weights.flags.writeable = False
        for tag in ("magnitude", "wanda", "stade", "stade-star", "sparsegpt-score"):
            scores = compute_scores(tag, weights, stats=stats, gram=gram)
            assert weights.tobytes() == before, tag
            assert not np.may_share_memory(scores, weights), tag
        weights.flags.writeable = True
    listed = base.tolist()
    assert compute_scores("wanda", listed, stats=stats).tobytes() == \
        compute_scores("wanda", base, stats=stats).tobytes()
    assert listed == base.tolist()
