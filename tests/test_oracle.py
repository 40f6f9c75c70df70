import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prunekit.oracle as oracle
from prunekit import (
    WeightLayer,
    bias_update,
    brute_force_single_prune,
    check_criterion_optimality,
    compute_scores,
    random_instance,
    reconstruction_mse,
    stats_init,
    stats_update,
)
from prunekit.criteria import CHECKABLE_TAGS, CRITERION_RULES
from prunekit.errors import EmptyStats, InstanceTooLarge, InvalidDimension, NonFiniteInput
from prunekit.oracle import DATA_REGIMES, MAX_FEATURES, MAX_ROWS, CheckResult

# Two features: one symmetric around zero, one constant with a large offset.
# With a bias refit the constant feature prunes for free; without one the
# symmetric feature is the cheaper removal (9 < 25 in mean squared output).
FIXTURE_CALIB = np.array([[1.0, 10.0], [-1.0, 10.0]])
FIXTURE_W = np.array([3.0, 0.5])


def test_fixture_with_bias_prunes_constant_feature():
    j, b, obj = brute_force_single_prune(FIXTURE_W, 1.0, FIXTURE_CALIB,
                                         allow_bias=True)
    assert j == 1
    assert b == pytest.approx(6.0, abs=1e-12)  # 1.0 + 10 * 0.5
    assert obj == 0.0


def test_fixture_without_bias_prunes_symmetric_feature():
    j, b, obj = brute_force_single_prune(FIXTURE_W, 1.0, FIXTURE_CALIB,
                                         allow_bias=False)
    assert j == 0
    assert b == 1.0
    assert obj == pytest.approx(9.0, abs=1e-12)


def test_single_candidate_forced():
    j, _, _ = brute_force_single_prune(np.array([0.7]), 0.0,
                                       np.array([[2.0], [3.0]]), allow_bias=True)
    assert j == 0


def test_instance_bounds():
    with pytest.raises(InstanceTooLarge):
        brute_force_single_prune(np.ones(65), 0.0, np.ones((4, 65)), True)
    with pytest.raises(InstanceTooLarge):
        brute_force_single_prune(np.ones(2), 0.0, np.ones((4097, 2)), True)
    with pytest.raises(EmptyStats):
        brute_force_single_prune(np.ones(2), 0.0, np.empty((0, 2)), True)


def test_zero_features_is_typed_error():
    with pytest.raises(InvalidDimension):
        brute_force_single_prune(np.zeros(0), 0.0, np.zeros((5, 0)), True)


@pytest.mark.parametrize("allow_bias", [True, False])
def test_overflowing_objective_is_typed_error(allow_bias):
    # Finite input whose products overflow float64: no candidate has a
    # finite objective, so there is no minimizer to return.
    with pytest.raises(NonFiniteInput):
        brute_force_single_prune(np.full(3, 1e200), 0.0, np.full((4, 3), 1e200),
                                 allow_bias)


def test_one_non_finite_candidate_is_typed_error():
    # Feature 1 is constant, so refitting the bias prunes it for free, but
    # its mean overflows: skipping it would return feature 0 (objective 1).
    calib = np.array([[1.0, 1e308], [-1.0, 1e308], [1.0, 1e308], [-1.0, 1e308]])
    with pytest.raises(NonFiniteInput):
        brute_force_single_prune(np.array([1.0, 1e-308]), 0.0, calib, True)


def test_a_non_finite_refit_bias_is_typed_error():
    # Both objectives are 0, but the bias plus the mean shift overflows.
    with pytest.raises(NonFiniteInput, match="refit bias"):
        brute_force_single_prune(np.ones(2), 1.5e308, np.full((3, 2), 5e307), True)


def test_tie_resolves_to_lowest_index():
    calib = np.array([[1.0, 1.0], [-1.0, -1.0]])  # identical features
    w = np.array([2.0, 2.0])
    j, _, _ = brute_force_single_prune(w, 0.0, calib, allow_bias=True)
    assert j == 0


def test_objective_matches_reconstruction_mse():
    rng = np.random.default_rng(41)
    for _ in range(15):
        calib, w, b0 = random_instance(rng)
        j, b, obj = brute_force_single_prune(w, b0, calib, allow_bias=True)
        pruned_w = w.copy()[:, None]
        pruned_w[j, 0] = 0.0
        original = WeightLayer(w[:, None], np.array([b0]), centered=False)
        pruned = WeightLayer(pruned_w, np.array([b]), centered=False)
        assert obj == pytest.approx(reconstruction_mse(original, pruned, calib),
                                    rel=1e-9, abs=1e-12)


def test_refit_bias_matches_compensation_path():
    rng = np.random.default_rng(43)
    for _ in range(15):
        calib, w, b0 = random_instance(rng)
        j, b, _ = brute_force_single_prune(w, b0, calib, allow_bias=True)
        stats = stats_update(stats_init(calib.shape[1]), calib)
        mask = np.zeros((calib.shape[1], 1), dtype=bool)
        mask[j, 0] = True
        layer = WeightLayer(w[:, None], np.array([b0]), centered=False)
        compensated = bias_update(layer, mask, stats)
        assert b == pytest.approx(compensated.bias[0], rel=1e-9, abs=1e-12)


def loop_single_prune(w_col, bias, calib, allow_bias):
    """Reference: the enumerator as one candidate per loop iteration, each
    objective the mean of the candidate's removed term."""
    best_j, best_b, best_obj = -1, float(bias), np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(calib.shape[1]):
            shift = calib[:, j].mean() * w_col[j] if allow_bias else 0.0
            objective = float(np.mean((calib[:, j] * w_col[j] - shift) ** 2))
            if not np.isfinite(objective):
                raise NonFiniteInput(f"objective of feature {j} is not finite")
            if objective < best_obj:
                best_j, best_b, best_obj = j, float(bias + shift), objective
    return best_j, best_b, best_obj


@st.composite
def enumeration_cases(draw):
    n = draw(st.sampled_from([1, 2, 64, 4096]) | st.integers(1, 200))
    m = draw(st.sampled_from([1, 2, 64]) | st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    calib = rng.uniform(-5, 5, m) + rng.uniform(0.1, 2, m) * rng.standard_normal((n, m))
    w_col = rng.uniform(-1, 1, m)
    picked = rng.random(m) < 0.3
    regime = draw(st.sampled_from(["plain", "ties", "offset", "huge"]))
    if regime == "ties":  # duplicated columns with equal weights tie exactly
        calib = calib[:, rng.integers(0, max(1, m // 3), m)]
        w_col = np.full(m, w_col[0])
    elif regime == "offset":  # near-constant columns at a large offset
        k = int(picked.sum())
        calib[:, picked] = (rng.choice([-1.0, 1.0], k) * 10 ** rng.uniform(3, 8, k)
                            + 10 ** rng.uniform(-6, -2, k) * rng.standard_normal((n, k)))
    elif regime == "huge":  # the squared error of these candidates overflows
        calib[:, picked] *= 1e160
    return w_col, float(rng.uniform(-1, 1)), calib


def bound_case(n, m):
    rng = np.random.default_rng(n * m)
    return rng.uniform(-1, 1, m), 0.25, rng.uniform(-5, 5, m) + rng.standard_normal((n, m))


@settings(max_examples=200, deadline=None)
@given(enumeration_cases(), st.booleans())
@example(bound_case(1, 1), True).via("one row, one feature")
@example(bound_case(1, 1), False).via("one row, one feature")
@example(bound_case(MAX_ROWS, MAX_FEATURES), True).via("the enumeration bounds")
@example(bound_case(MAX_ROWS, MAX_FEATURES), False).via("the enumeration bounds")
def test_enumeration_matches_candidate_loop(case, allow_bias):
    w_col, bias, calib = case
    try:
        expected = loop_single_prune(w_col, bias, calib, allow_bias)
    except NonFiniteInput as exc:
        with pytest.raises(NonFiniteInput) as raised:
            brute_force_single_prune(w_col, bias, calib, allow_bias)
        assert str(raised.value) == str(exc)  # names the same feature
        return
    got = brute_force_single_prune(w_col, bias, calib, allow_bias)
    assert type(got[0]) is int
    assert got == expected  # bit-identical, ties to the same lowest index


def exact_objectives(w_col, calib, allow_bias):
    """Every candidate's objective as an exact fraction."""
    n = calib.shape[0]
    objectives = []
    for j in range(calib.shape[1]):
        removed = [Fraction(x) * Fraction(w_col[j]) for x in calib[:, j]]
        shift = sum(removed) / n if allow_bias else 0
        objectives.append(sum((r - shift) ** 2 for r in removed) / n)
    return objectives


@pytest.mark.parametrize("allow_bias", [True, False])
def test_enumeration_does_not_depend_on_the_bias(allow_bias):
    # Each objective is the mean of the candidate's removed term, so the bias
    # moves only best_bias: an objective taken as the difference of two
    # outputs at a bias of 2**50 or 2**53 loses its low bits, and its argmin.
    rng = np.random.default_rng(1)
    for case in range(200):
        calib, w_col, _ = random_instance(rng, "uncentered")
        found = {brute_force_single_prune(w_col, bias, calib, allow_bias)[::2]
                 for bias in (0.0, 1e8, 2.0**50, 2.0**53)}
        assert len(found) == 1, case
        if case == 0:
            (j, objective), = found
            exact = exact_objectives(w_col, calib, allow_bias)
            assert j == min(range(len(exact)), key=exact.__getitem__)
            assert abs(Fraction(objective) - exact[j]) <= 4 * Fraction(math.ulp(objective))


def test_stade_matches_enumeration_on_uncentered_data():
    result = check_criterion_optimality("stade", trials=200, seed=7)
    assert result.passed
    assert result.matches == 200
    assert result.data == "uncentered" and result.allow_bias


def test_wanda_matches_enumeration_on_centered_data():
    result = check_criterion_optimality("wanda", trials=200, seed=8)
    assert result.passed
    assert result.max_bias_shift <= 1e-9


def test_stade_star_matches_enumeration_without_bias():
    result = check_criterion_optimality("stade-star", trials=200, seed=9)
    assert result.passed
    assert not result.allow_bias


def test_wanda_misranks_offset_features():
    result = check_criterion_optimality("wanda", trials=200, seed=10, data="offset")
    assert result.mismatches > 0
    assert result.first_counterexample is not None
    detail = result.first_counterexample
    assert detail["criterion_choice"] != detail["enumeration_choice"]
    assert len(detail["weights"]) == detail["features"]


def test_stade_still_matches_on_offset_features():
    result = check_criterion_optimality("stade", trials=200, seed=10, data="offset")
    assert result.passed


@pytest.mark.parametrize("mean, std", [(1e3, 1e-2), (1e4, 1e-2), (3e4, 1e-3)])
def test_stade_matches_enumeration_on_large_offset_f32_features(mean, std):
    # Up to three features sit at a large offset with a tiny spread, stored
    # as float32 like container payloads: the regime where raw-moment
    # statistics lose the variance the stade score ranks by.
    rng = np.random.default_rng(int(mean / std))
    for _ in range(500):
        n, m = int(rng.integers(8, 65)), int(rng.integers(2, 17))
        mu = rng.uniform(-5.0, 5.0, size=m)
        sigma = rng.uniform(0.1, 2.0, size=m)
        planted = rng.choice(m, size=min(3, m), replace=False)
        mu[planted] = rng.choice([-1.0, 1.0], size=planted.size) * mean
        sigma[planted] = std
        calib = (mu + sigma * rng.standard_normal((n, m))).astype(np.float32)
        calib = calib.astype(np.float64)
        w_col = rng.uniform(-1.0, 1.0, size=m)
        stats = stats_update(stats_init(m), calib)
        chosen = int(np.argmin(compute_scores("stade", w_col[:, None], stats=stats)))
        best, _, _ = brute_force_single_prune(w_col, float(rng.uniform(-1.0, 1.0)),
                                              calib, allow_bias=True)
        assert chosen == best


def test_counterexample_is_the_seeds_first_mismatching_trial():
    # The reported record is built after all trials ran; pin it to the first
    # mismatching trial of this seed so that building it cannot shift it.
    a = check_criterion_optimality("wanda", trials=200, seed=10, data="offset")
    detail = a.first_counterexample
    assert (detail["trial"], detail["criterion_choice"], detail["enumeration_choice"]) \
        == (2, 3, 4)
    # The mean of the removed term alone; exactly 0.0006974445790327535.
    assert detail["enumeration_objective"] == 0.0006974445790327551
    assert a.mismatches == 161


def test_check_rejects_unknown_criterion_and_bad_trials():
    with pytest.raises(ValueError):
        check_criterion_optimality("magnitude", trials=10, seed=0)
    with pytest.raises(ValueError):
        check_criterion_optimality("stade", trials=0, seed=0)
    with pytest.raises(ValueError, match="integer"):
        check_criterion_optimality("stade", trials=2.5, seed=0)
    with pytest.raises(ValueError, match="integer"):
        check_criterion_optimality("stade", trials=True, seed=0)
    with pytest.raises(ValueError, match="integer in"):
        check_criterion_optimality("stade", trials=oracle.MAX_TRIALS + 1, seed=0)
    with pytest.raises(ValueError):
        check_criterion_optimality("stade", trials=10, seed=0, data="weird")


def per_trial_check(tag, trials, seed, data="auto"):
    """Reference: the check as one trial at a time, each from one child of a
    spawn list, with the first counterexample's instance drawn again."""
    default_data, allow_bias = CRITERION_RULES[tag].optimal_in
    if data == "auto":
        data = default_data
    children = np.random.SeedSequence(seed).spawn(trials)

    def instance(idx):
        return oracle.random_instance(np.random.default_rng(children[idx]), data)

    def run_trial(idx):
        calib, w_col, bias = instance(idx)
        stats = stats_update(stats_init(calib.shape[1]), calib)
        scores = compute_scores(tag, w_col[:, None], stats=stats)
        crit_j = int(np.argmin(scores[:, 0]))
        bf_j, bf_b, bf_obj = brute_force_single_prune(w_col, bias, calib, allow_bias)
        mismatch = None if crit_j == bf_j else (crit_j, bf_j, bf_obj)
        return abs(bf_b - bias), mismatch

    outcomes = [run_trial(idx) for idx in range(trials)]
    mismatched = [idx for idx, (_, mismatch) in enumerate(outcomes) if mismatch]
    first = None
    if mismatched:
        idx = mismatched[0]
        crit_j, bf_j, bf_obj = outcomes[idx][1]
        calib, w_col, bias = instance(idx)
        first = {
            "trial": idx,
            "rows": int(calib.shape[0]),
            "features": int(calib.shape[1]),
            "criterion_choice": crit_j,
            "enumeration_choice": bf_j,
            "enumeration_objective": bf_obj,
            "weights": w_col.tolist(),
            "bias": bias,
            "feature_means": calib.mean(axis=0).tolist(),
            "feature_stds": calib.std(axis=0, ddof=1).tolist(),
        }
    return CheckResult(
        criterion=tag,
        data=data,
        allow_bias=allow_bias,
        trials=trials,
        matches=trials - len(mismatched),
        mismatches=len(mismatched),
        max_bias_shift=float(max(shift for shift, _ in outcomes)),
        first_counterexample=first,
    )


@pytest.mark.parametrize("data", DATA_REGIMES)
@pytest.mark.parametrize("tag", CHECKABLE_TAGS)
def test_windowed_check_matches_per_trial_loop(tag, data):
    # One full window and part of a second. Off centered data wanda
    # mismatches, so its first counterexample is compared too.
    trials = oracle._WINDOW + 44
    expected = asdict(per_trial_check(tag, trials, 17, data))
    got = asdict(check_criterion_optimality(tag, trials, 17, data))
    assert got == expected


def numpy_trial_state(seed, idx):
    """The (state, inc) numpy's own SeedSequence and PCG64 give trial ``idx``."""
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(idx,))).state["state"]
    return state["state"], state["inc"]


# Seeds of one, two and four uint32 words (the last 100 bits wide); indices
# of a one-word spawn key, then of two words (2**32 and up).
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**99 + 12345]
INDICES = [0, 1, 255, 256, 2**31, 2**32 - 1, 2**32, 2**40]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_states_are_numpys(seed):
    # One call holds keys of both lengths, so it takes one array pass for each.
    assert list(oracle._pcg64_states(seed, INDICES)) == [numpy_trial_state(seed, i) for i in INDICES]
    for idx in INDICES:
        assert list(oracle._pcg64_states(seed, [idx])) == [numpy_trial_state(seed, idx)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0), indices=st.lists(st.integers(min_value=0),
                                                          min_size=1, max_size=5))
def test_trial_states_are_numpys_for_any_seed_and_index(seed, indices):
    assert list(oracle._pcg64_states(seed, indices)) == [numpy_trial_state(seed, i) for i in indices]


def test_the_reused_generator_draws_as_a_fresh_one_per_trial():
    # A float32 draw leaves half of a uint64 buffered in the bit generator;
    # the next trial must start without it.
    indices = [0, 1, 2, 2**32]
    for idx, rng in zip(indices, oracle._trial_rngs(oracle._pcg64_states(5, indices))):
        fresh = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(idx,)))
        assert rng.random(dtype=np.float32) == fresh.random(dtype=np.float32)
        assert rng.standard_normal(3).tobytes() == fresh.standard_normal(3).tobytes()


@pytest.mark.parametrize("seed, start", [(0, 0), (73, 3 * 1024), (2**64 + 5, 2**32 - 100)])
def test_first_pass_draws_each_trials_row_count(seed, start, monkeypatch):
    # The second pass draws every trial once, from its own state, grouped by
    # the row count the first pass drew and in index order within a group;
    # that row count is the one the full draw has.
    window = range(start, start + 300)
    real, drawn = oracle.random_instance, []

    def draw(rng, data):
        state = rng.bit_generator.state["state"]
        instance = real(rng, data)
        drawn.append((instance[0].shape[0], (state["state"], state["inc"])))
        return instance

    monkeypatch.setattr(oracle, "random_instance", draw)
    oracle._check_window("stade", "uncentered", True, seed, window)
    trial = {numpy_trial_state(seed, idx): idx for idx in window}
    got = [(rows, trial[state]) for rows, state in drawn]
    expected = [(random_instance(np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(idx,))))[0].shape[0], idx) for idx in window]
    assert sorted(got) == sorted(expected)
    order = [rows for rows, _ in got]
    assert got == sorted(got, key=lambda pair: (order.index(pair[0]), pair[1]))


def test_a_check_makes_one_stack_per_window_and_row_count(monkeypatch):
    trials, seed = oracle._WINDOW + 300, 73
    stacks = []

    def counting_stats_update(stats, stack):
        stacks.append(stack.shape[0])
        return stats_update(stats, stack)

    monkeypatch.setattr(oracle, "stats_update", counting_stats_update)
    check_criterion_optimality("stade", trials, seed)
    children = np.random.SeedSequence(seed).spawn(trials)
    rows = [random_instance(np.random.default_rng(child))[0].shape[0] for child in children]
    expected = [n for start in range(0, trials, oracle._WINDOW)
                for n in set(rows[start : start + oracle._WINDOW])]
    assert sorted(stacks) == sorted(expected)
    assert len(stacks) <= 57 * math.ceil(trials / oracle._WINDOW)


@pytest.mark.parametrize("window", [4, 7])
@pytest.mark.parametrize("data", DATA_REGIMES)
@pytest.mark.parametrize("tag", CHECKABLE_TAGS)
def test_small_windows_split_stacks_alike(tag, data, window, monkeypatch):
    # Windows this small split the trials of one row count across windows and
    # leave most stacks a single instance.
    monkeypatch.setattr(oracle, "_WINDOW", window)
    for trials in (1, window - 1, window, window + 1, 2 * window + 3):
        expected = asdict(per_trial_check(tag, trials, 0, data))
        got = asdict(check_criterion_optimality(tag, trials, 0, data))
        assert got == expected, trials


# Trial index -> what its instance becomes: rows that overflow the statistics,
# or a last weight whose objective overflows while its statistics and score
# stay finite. Every instance has 8 rows, so a window is one stack.
OVERFLOWS = {
    "rows": {3: "rows"},
    "weight": {3: "weight"},
    "weight-then-rows": {2: "weight", 5: "rows"},
    "rows-then-weight": {2: "rows", 5: "weight"},
}


@pytest.mark.parametrize("case", OVERFLOWS)
@pytest.mark.parametrize("tag", CHECKABLE_TAGS)
def test_overflow_in_a_stack_raises_the_per_trial_error(tag, case, monkeypatch):
    real = oracle.random_instance
    drawn = []

    def draw(rng, data):
        calib, w_col, bias = real(rng, data)
        kind = OVERFLOWS[case].get(len(drawn))
        drawn.append(kind)
        if kind == "rows":
            calib *= 1e200
        elif kind == "weight":
            w_col[-1] = 1e200
        return calib, w_col, bias

    # A stack raises at its first failing step, which can belong to a later
    # trial than the first failing one, so the message (which step, which
    # feature of the stack) may differ from the per-trial loop's; the type may not.
    monkeypatch.setattr(oracle, "random_instance", draw)
    monkeypatch.setattr(oracle, "_draw_rows", lambda rng: 8)
    monkeypatch.setattr(oracle, "_WINDOW", 7)
    with pytest.raises(NonFiniteInput):
        per_trial_check(tag, 12, 4)
    drawn.clear()
    with pytest.raises(NonFiniteInput, match="overflow|not finite"):
        check_criterion_optimality(tag, 12, 4)


def test_a_failing_window_of_one_trial_raises_its_error(monkeypatch):
    # A window of one trial is a stack of one: it raises that trial's error.
    real = oracle.random_instance

    def draw(rng, data):
        calib, w_col, bias = real(rng, data)
        return calib * 1e200, w_col, bias

    monkeypatch.setattr(oracle, "random_instance", draw)
    with pytest.raises(NonFiniteInput, match="overflow"):
        check_criterion_optimality("stade", 1, 0)


def test_random_instance_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        calib, w, b = random_instance(rng)
        n, m = calib.shape
        assert 8 <= n <= 64 and 2 <= m <= 16
        assert np.abs(w).max() <= 1.0 and abs(b) <= 1.0
    calib, _, _ = random_instance(rng, "offset")
    mean = calib.mean(axis=0)
    std = calib.std(axis=0, ddof=1)
    assert ((np.abs(mean) >= 2.5) & (std <= 0.1)).any()


def test_random_instance_centered_is_the_uncentered_draw_minus_its_means():
    for seed in range(20):
        calib, w, b = random_instance(np.random.default_rng(seed), "uncentered")
        centered, w_c, b_c = random_instance(np.random.default_rng(seed), "centered")
        assert centered.tobytes() == (calib - calib.mean(axis=0)).tobytes()
        assert w_c.tobytes() == w.tobytes() and b_c == b


def test_random_instance_rejects_an_unknown_regime():
    with pytest.raises(ValueError, match="unknown data regime"):
        random_instance(np.random.default_rng(0), "decorrelated")
