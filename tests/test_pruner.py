import json
import warnings

import numpy as np
import pytest

from prunekit import (
    Criterion,
    SparsitySpec,
    TensorContainer,
    ToyMlpConfig,
    WeightLayer,
    classify_centered,
    compute_scores,
    gen_toy_mlp,
    mask_violation,
    prune_container,
    prune_layer,
    reconstruction_mse,
    stats_init,
    stats_update,
)
from prunekit.errors import (
    DimensionMismatch,
    IndivisibleGroup,
    InsufficientSamples,
    MissingCalibration,
    NonFiniteInput,
    SingularGram,
)
from prunekit.pruner import split_holdout


def stats_of(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return stats_update(stats_init(rows.shape[1]), rows)


def toy_pair(seed=0, dims=(8, 16, 4), norm="none", samples=128):
    return gen_toy_mlp(seed, ToyMlpConfig(dims, norm, samples))


def single_layer_containers(weights, bias, rows, centered=False):
    model = TensorContainer()
    model.add_layer("l", WeightLayer(np.asarray(weights, float),
                                     None if bias is None else np.asarray(bias, float),
                                     centered))
    calib = TensorContainer()
    calib.add("l.calib", np.asarray(rows, float))
    return model, calib


def test_zero_sparsity_is_bitexact_noop():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((6, 3))
    b = rng.standard_normal(3)
    rows = rng.uniform(-2, 2, size=(40, 6))
    model, calib = single_layer_containers(w, b, rows)
    out, report = prune_container(model, calib, Criterion("wanda"),
                                  SparsitySpec.unstructured(0.0))
    pruned = out.get_layer("l")
    assert np.array_equal(pruned.weights, w)
    assert np.array_equal(pruned.bias, b)
    rec = report.layers[0]
    assert rec.reconstruction_mse == 0.0
    assert rec.achieved_sparsity == 0.0
    assert rec.bias_delta_norm == 0.0


def test_stade_w_resolves_per_layer_flags():
    model, calib = toy_pair(norm="layernorm-like")
    _, report = prune_container(model, calib, Criterion("stade-w"),
                                SparsitySpec.unstructured(0.5))
    assert [r.criterion for r in report.layers] == ["wanda", "stade"]
    assert [r.centered for r in report.layers] == [True, False]


def test_half_sparsity_achieved_exactly():
    rng = np.random.default_rng(2)
    model, calib = single_layer_containers(rng.standard_normal((10, 4)), None,
                                           rng.uniform(-1, 1, size=(30, 10)))
    out, report = prune_container(model, calib, Criterion("magnitude"),
                                  SparsitySpec.unstructured(0.5))
    assert report.layers[0].achieved_sparsity == pytest.approx(5 / 10)
    mask = out.get_mask("l")
    assert (mask.sum(axis=0) == 5).all()


def test_output_masks_validate():
    model, calib = toy_pair()
    spec = SparsitySpec.structured(2, 4)
    out, _ = prune_container(model, calib, Criterion("wanda"), spec)
    for name in ("fc1", "fc2"):
        assert mask_violation(out.get_mask(name), spec) is None


def test_every_criterion_runs_end_to_end():
    model, calib = toy_pair()
    for tag in ("magnitude", "wanda", "stade", "stade-star", "stade-w"):
        _, report = prune_container(model, calib, Criterion(tag),
                                    SparsitySpec.unstructured(0.25))
        assert len(report.layers) == 2
    _, report = prune_container(model, calib,
                                Criterion("sparsegpt-score", damping="auto"),
                                SparsitySpec.unstructured(0.25))
    assert all(r.criterion == "sparsegpt-score" for r in report.layers)


def test_missing_calibration_is_an_error():
    model, calib = toy_pair()
    bare = TensorContainer()
    bare.add("fc1.calib", calib.get("fc1.calib"))
    with pytest.raises(MissingCalibration, match="fc2"):
        prune_container(model, bare, Criterion("wanda"),
                        SparsitySpec.unstructured(0.5))


def test_holdout_fraction_bounds():
    model, calib = toy_pair()
    with pytest.raises(ValueError):
        prune_container(model, calib, Criterion("wanda"),
                        SparsitySpec.unstructured(0.5), holdout_fraction=0.6)


@pytest.mark.parametrize("fraction", [-0.5, 0.6, float("nan")])
def test_holdout_fraction_outside_range_is_value_error(fraction):
    # A negative tail would overlap the statistics rows; NaN cannot be floored.
    rows = np.random.default_rng(5).standard_normal((20, 4))
    with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
        split_holdout(rows, fraction)
    layer = WeightLayer(np.ones((4, 3)), np.zeros(3), centered=False)
    with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
        prune_layer("fc", layer, rows, Criterion("stade"),
                    SparsitySpec.unstructured(0.5), holdout_fraction=fraction)


@pytest.mark.parametrize("weights, bias, error", [
    (np.ones((4, 3)), np.zeros(1), DimensionMismatch),
    (np.ones((4, 3)), np.zeros((1, 3)), DimensionMismatch),
    (np.ones((4, 3)), np.zeros(5), DimensionMismatch),
    (np.ones((4, 3)), np.array([0.0, np.nan, 0.0]), NonFiniteInput),
    (np.ones((4, 3)), np.array([0.0, 0.0, -np.inf]), NonFiniteInput),
    (np.ones(4), None, DimensionMismatch),
], ids=["bias-1", "bias-1x3", "bias-5", "bias-nan", "bias-inf", "weights-1d"])
def test_weight_layer_holds_the_layer_rule(weights, bias, error):
    # A bias that would broadcast to another shape, or is not finite, must
    # fail as a typed error, never reach a pruned layer or its report.
    rows = np.random.default_rng(6).standard_normal((20, 4))
    with pytest.raises(error):
        prune_layer("fc", WeightLayer(weights, bias, centered=False), rows,
                    Criterion("stade"), SparsitySpec.unstructured(0.5))


def test_split_holdout_tail_or_every_row():
    rows = np.arange(20.0).reshape(10, 2)
    train, holdout = split_holdout(rows, 0.2)
    assert np.array_equal(train, rows[:8]) and np.array_equal(holdout, rows[8:])
    for fraction in (0.0, 0.05):
        train, holdout = split_holdout(rows, fraction)
        assert np.array_equal(train, rows) and np.array_equal(holdout, rows)


def test_repruning_a_pruned_container():
    model, calib = toy_pair()
    first, _ = prune_container(model, calib, Criterion("stade"),
                               SparsitySpec.unstructured(0.5))
    spec = SparsitySpec.unstructured(0.75)
    second, report = prune_container(first, calib, Criterion("stade"), spec)
    masks = [name for name in second.names() if name.endswith(".mask")]
    assert masks == ["fc1.mask", "fc2.mask"]
    for name, rec in zip(second.layer_names(), report.layers):
        layer = second.get_layer(name)
        mask = second.get_mask(name)
        assert mask_violation(mask, spec) is None
        assert rec.achieved_sparsity == np.floor(0.75 * layer.m) / layer.m
        earlier = first.get_mask(name)
        assert np.all(layer.weights[earlier] == 0.0) and np.all(mask[earlier])


def test_bias_flag_behavior_per_criterion():
    rng = np.random.default_rng(4)
    rows = 5.0 + rng.standard_normal((60, 6))  # strongly offset features
    w = rng.uniform(0.5, 1.0, size=(6, 2))
    model, calib = single_layer_containers(w, None, rows)
    spec = SparsitySpec.unstructured(0.5)
    _, rep_stade = prune_container(model, calib, Criterion("stade"), spec)
    assert rep_stade.layers[0].bias_delta_norm > 0
    assert rep_stade.layers[0].bias_added
    _, rep_wanda = prune_container(model, calib, Criterion("wanda"), spec)
    assert rep_wanda.layers[0].bias_delta_norm == 0.0
    _, rep_forced = prune_container(model, calib, Criterion("wanda"), spec,
                                    bias_update_enabled=True)
    assert rep_forced.layers[0].bias_delta_norm > 0


def test_disabled_update_is_noop():
    rng = np.random.default_rng(12)
    rows = 5.0 + rng.standard_normal((60, 6))  # offsets stade would compensate
    model, calib = TensorContainer(), TensorContainer()
    for name, bias in (("a", rng.standard_normal(3)), ("b", None)):
        model.add_layer(name, WeightLayer(rng.uniform(0.5, 1.0, (6, 3)), bias, False))
        calib.add(f"{name}.calib", rows)
    out, report = prune_container(model, calib, Criterion("stade"),
                                  SparsitySpec.unstructured(0.5),
                                  bias_update_enabled=False)
    assert out.get_layer("a").bias.tobytes() == model.get_layer("a").bias.tobytes()
    assert out.get_layer("b").bias is None
    for rec in report.layers:
        assert rec.criterion == "stade"
        assert rec.bias_delta_norm == 0.0 and not rec.bias_added


def test_layer_order_independence():
    rng = np.random.default_rng(5)
    layers = {f"l{i}": (rng.standard_normal((8, 3)), rng.uniform(-1, 1, (50, 8)))
              for i in range(3)}
    spec = SparsitySpec.unstructured(0.5)

    def build(order):
        model, calib = TensorContainer(), TensorContainer()
        for name in order:
            w, rows = layers[name]
            model.add_layer(name, WeightLayer(w, None, centered=False))
            calib.add(f"{name}.calib", rows)
        return prune_container(model, calib, Criterion("stade"), spec)

    out_a, _ = build(["l0", "l1", "l2"])
    out_b, _ = build(["l2", "l0", "l1"])
    for name in layers:
        assert np.array_equal(out_a.get_layer(name).weights,
                              out_b.get_layer(name).weights)
        assert np.array_equal(out_a.get_mask(name), out_b.get_mask(name))


def test_thread_count_invariance():
    model, calib = toy_pair(seed=6)
    spec = SparsitySpec.structured(2, 4)
    out1, rep1 = prune_container(model, calib, Criterion("stade"), spec, threads=1)
    out4, rep4 = prune_container(model, calib, Criterion("stade"), spec, threads=4)
    for name in ("fc1", "fc2"):
        assert np.array_equal(out1.get_layer(name).weights,
                              out4.get_layer(name).weights)
    assert [r.reconstruction_mse for r in rep1.layers] == \
           [r.reconstruction_mse for r in rep4.layers]


def test_classify_centered_exact_zero_mean():
    stats = stats_of([[1.0, -2.0], [-1.0, 2.0]])
    assert classify_centered(stats)


def test_classify_centered_offset_feature():
    rows = np.array([[10.0 + 1.0], [10.0 - 1.0], [10.0 + 0.5], [10.0 - 0.5]])
    stats = stats_of(rows)
    assert not classify_centered(stats)


def test_classify_centered_needs_two_rows():
    with pytest.raises(InsufficientSamples):
        classify_centered(stats_of([[1.0]]))


def test_manifest_flag_wins_but_warns():
    rng = np.random.default_rng(8)
    rows = 10.0 + rng.standard_normal((80, 4))  # clearly uncentered
    model, calib = single_layer_containers(rng.uniform(-1, 1, (4, 2)), None, rows,
                                           centered=True)  # flag claims centered
    _, report = prune_container(model, calib, Criterion("stade-w"),
                                SparsitySpec.unstructured(0.5))
    rec = report.layers[0]
    assert rec.criterion == "wanda"  # manifest flag drives the resolution
    assert any("disagrees" in w for w in rec.warnings)


def test_reconstruction_mse_identity():
    layer = WeightLayer(np.ones((3, 2)), np.zeros(2), centered=False)
    rows = np.random.default_rng(9).uniform(-1, 1, size=(20, 3))
    assert reconstruction_mse(layer, layer, rows) == 0.0


@pytest.mark.parametrize("m, h, n", [(4, 0, 10), (4, 2, 0)])
def test_reconstruction_mse_of_empty_output_is_zero(m, h, n):
    layer = WeightLayer(np.ones((m, h)), None, centered=False)
    assert reconstruction_mse(layer, layer, np.ones((n, m))) == 0.0


def test_reconstruction_mse_matches_single_prune_closed_form():
    # Pruning weight j with the optimal bias leaves exactly the centered
    # second moment of feature j times the squared weight.
    rng = np.random.default_rng(10)
    rows = rng.uniform(-5, 5, size=6) + rng.uniform(0.1, 2.0, size=6) \
        * rng.standard_normal((64, 6))
    w = rng.uniform(-1, 1, size=(6, 1))
    layer = WeightLayer(w, np.array([0.3]), centered=False)
    stats = stats_of(rows)
    j = 4
    mask = np.zeros((6, 1), dtype=bool)
    mask[j, 0] = True
    pruned_w = np.where(mask, 0.0, w)
    bias = np.array([0.3 + stats.mean[j] * w[j, 0]])
    pruned = WeightLayer(pruned_w, bias, centered=False)
    got = reconstruction_mse(layer, pruned, rows)
    expected = rows[:, j].var(ddof=0) * w[j, 0] ** 2  # two-pass oracle
    assert got == pytest.approx(expected, rel=1e-6)


def test_stade_choice_dominates_any_single_prune():
    # Per output column, stade's pick with the compensated bias attains the
    # lowest reconstruction error among all single-weight prunes.
    rng = np.random.default_rng(11)
    for _ in range(10):
        rows = rng.uniform(-5, 5, size=5) + rng.uniform(0.1, 2.0, size=5) \
            * rng.standard_normal((48, 5))
        w = rng.uniform(-1, 1, size=(5, 3))
        layer = WeightLayer(w, rng.uniform(-1, 1, size=3), centered=False)
        stats = stats_of(rows)

        def single_prune_error(j, col):
            pruned_w = w[:, [col]].copy()
            pruned_w[j, 0] = 0.0
            bias = np.array([layer.bias[col] + stats.mean[j] * w[j, col]])
            col_layer = WeightLayer(w[:, [col]], layer.bias[[col]], False)
            return reconstruction_mse(col_layer,
                                      WeightLayer(pruned_w, bias, False), rows)

        scores = compute_scores("stade", w, stats=stats)
        for col in range(3):
            pick = int(np.argmin(scores[:, col]))
            errors = [single_prune_error(j, col) for j in range(5)]
            assert errors[pick] <= min(errors) + 1e-12


def test_report_serializes():
    model, calib = toy_pair()
    _, report = prune_container(model, calib, Criterion("wanda"),
                                SparsitySpec.unstructured(0.5))
    payload = report.to_dict()
    assert len(payload["layers"]) == 2
    assert {"layer", "criterion", "achieved_sparsity",
            "reconstruction_mse"} <= payload["layers"][0].keys()
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload


@pytest.mark.parametrize("tag", ["wanda", "sparsegpt-score"])
def test_overflowing_calibration_rows_are_typed_error(tag):
    # Finite rows pass the input rule, but their squares overflow float64.
    rows = np.random.default_rng(3).standard_normal((20, 4)) * 1e160
    layer = WeightLayer(np.ones((4, 2)), np.zeros(2), centered=False)
    with pytest.raises(NonFiniteInput, match="overflow"):
        prune_layer("fc", layer, rows, Criterion(tag), SparsitySpec.unstructured(0.5))


@pytest.mark.parametrize("bias_update_enabled", [False, True], ids=["mse", "bias"])
def test_overflowing_error_report_is_typed_error(bias_update_enabled):
    # Finite f64 weights and rows whose outputs (bias off) or summed bias
    # change (bias on) overflow float64 stop with a typed error, not a
    # RuntimeWarning from inside the report.
    layer = WeightLayer(np.full((2, 2), 1e300), None, centered=False)
    with pytest.raises(NonFiniteInput, match="overflow"):
        prune_layer("fc", layer, np.full((10, 2), 1e8), Criterion("magnitude"),
                    SparsitySpec.unstructured(0.5),
                    bias_update_enabled=bias_update_enabled)


def test_infinite_reconstruction_error_is_typed_error():
    # With warnings ignored, an infinite error would reach the report, and
    # json.dump writes it as the non-JSON token Infinity.
    layer = WeightLayer(np.full((4, 3), 1e200), None, centered=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonFiniteInput, match="overflow"):
            prune_layer("fc", layer, np.ones((10, 4)), Criterion("magnitude"),
                        SparsitySpec.unstructured(0.5))
        with pytest.raises(NonFiniteInput, match="overflow"):
            reconstruction_mse(layer, WeightLayer(np.zeros((4, 3)), None, False),
                               np.ones((10, 4)))


@pytest.mark.parametrize("criterion, spec, error", [
    (Criterion("wanda"), SparsitySpec.parse("2:4"), IndivisibleGroup),
    (Criterion("sparsegpt-score", damping=0.0), SparsitySpec.unstructured(0.5),
     SingularGram),
], ids=["indivisible", "singular"])
def test_prune_container_error_names_the_layer(criterion, spec, error):
    model, calib = single_layer_containers(np.ones((6, 2)), None, np.ones((20, 6)))
    with pytest.raises(error, match="^layer 'l': ") as info:
        prune_container(model, calib, criterion, spec)
    assert type(info.value) is error and "'l'" not in str(info.value.__cause__)
