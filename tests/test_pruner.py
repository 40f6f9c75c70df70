import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prunekit.pruner as pruner_module
import prunekit.stats as stats_module
from prunekit import (
    CRITERION_TAGS,
    Criterion,
    GramAccumulator,
    SparsitySpec,
    TensorContainer,
    ToyMlpConfig,
    WeightLayer,
    classify_centered,
    compute_scores,
    gen_toy_mlp,
    load_container,
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
    InvalidArgument,
    MissingCalibration,
    NonFiniteInput,
    ShapeMismatch,
    SingularGram,
)
from prunekit.compensate import _bias_change
from prunekit.criteria import CRITERION_RULES
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
                                  SparsitySpec(ratio=0.0))
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
                                SparsitySpec(ratio=0.5))
    assert [r.criterion for r in report.layers] == ["wanda", "stade"]
    assert [r.centered for r in report.layers] == [True, False]


def test_half_sparsity_achieved_exactly():
    rng = np.random.default_rng(2)
    model, calib = single_layer_containers(rng.standard_normal((10, 4)), None,
                                           rng.uniform(-1, 1, size=(30, 10)))
    out, report = prune_container(model, calib, Criterion("magnitude"),
                                  SparsitySpec(ratio=0.5))
    assert report.layers[0].achieved_sparsity == pytest.approx(5 / 10)
    mask = out.get("l.mask")
    assert (mask.sum(axis=0) == 5).all()


def test_output_masks_validate():
    model, calib = toy_pair()
    spec = SparsitySpec(n=2, m=4)
    out, _ = prune_container(model, calib, Criterion("wanda"), spec)
    for name in ("fc1", "fc2"):
        assert mask_violation(out.get(f"{name}.mask"), spec) is None


def test_every_criterion_runs_end_to_end():
    model, calib = toy_pair()
    for tag in ("magnitude", "wanda", "stade", "stade-star", "stade-w"):
        _, report = prune_container(model, calib, Criterion(tag),
                                    SparsitySpec(ratio=0.25))
        assert len(report.layers) == 2
    _, report = prune_container(model, calib,
                                Criterion("sparsegpt-score", damping="auto"),
                                SparsitySpec(ratio=0.25))
    assert all(r.criterion == "sparsegpt-score" for r in report.layers)


def test_missing_calibration_is_an_error():
    model, calib = toy_pair()
    bare = TensorContainer()
    bare.add("fc1.calib", calib.get("fc1.calib"))
    with pytest.raises(MissingCalibration, match="fc2"):
        prune_container(model, bare, Criterion("wanda"),
                        SparsitySpec(ratio=0.5))


def test_holdout_fraction_bounds():
    model, calib = toy_pair()
    with pytest.raises(ValueError):
        prune_container(model, calib, Criterion("wanda"),
                        SparsitySpec(ratio=0.5), holdout_fraction=0.6)


@pytest.mark.parametrize("fraction", [-0.5, 0.6, float("nan"), False])
def test_holdout_fraction_outside_range_is_value_error(fraction):
    # A negative tail would overlap the statistics rows; NaN cannot be floored;
    # a bool is no fraction (stats._is_fraction).
    rows = np.random.default_rng(5).standard_normal((20, 4))
    with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
        split_holdout(rows, fraction)
    layer = WeightLayer(np.ones((4, 3)), np.zeros(3), centered=False)
    with pytest.raises(ValueError, match=r"\[0, 0.5\]"):
        prune_layer("fc", layer, rows, Criterion("stade"),
                    SparsitySpec(ratio=0.5), holdout_fraction=fraction)


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
                    Criterion("stade"), SparsitySpec(ratio=0.5))


@pytest.mark.parametrize("name", ["l.bias", "t"])
def test_prune_layer_of_a_tensor_that_is_not_a_layer_is_invalid_argument(name):
    # A layer's part, or a tensor of no layer, has no weights to prune.
    rows = np.random.default_rng(7).standard_normal((20, 4))
    model, _ = single_layer_containers(np.ones((4, 3)), np.zeros(3), rows)
    model.add("t", np.ones((4, 3)))
    with pytest.raises(InvalidArgument, match=f"{name!r} is not a weight layer"):
        prune_layer(name, model, rows, Criterion("stade"), SparsitySpec(ratio=0.5))


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
                               SparsitySpec(ratio=0.5))
    spec = SparsitySpec(ratio=0.75)
    second, report = prune_container(first, calib, Criterion("stade"), spec)
    masks = [e.name for e in second.entries() if e.name.endswith(".mask")]
    assert masks == ["fc1.mask", "fc2.mask"]
    for name, rec in zip(second.layer_names(), report.layers):
        layer = second.get_layer(name)
        mask = second.get(f"{name}.mask")
        assert mask_violation(mask, spec) is None
        assert rec.achieved_sparsity == np.floor(0.75 * layer.m) / layer.m
        earlier = first.get(f"{name}.mask")
        assert np.all(layer.weights[earlier] == 0.0) and np.all(mask[earlier])


def test_prune_container_replaces_only_a_layers_own_parts():
    rng = np.random.default_rng(8)
    w, rows = rng.standard_normal((6, 3)), rng.uniform(-2, 2, size=(40, 6))
    model, calib = single_layer_containers(w, rng.standard_normal(3), rows)
    model.add_mask("l", np.ones((6, 3), dtype=bool))
    # Not parts of a layer: "emb" is no layer, and "calib" is no part suffix.
    kept = {"emb": rng.standard_normal((2, 5)), "emb.bias": rng.standard_normal(5),
            "emb.mask": rng.integers(0, 2, (2, 5)).astype(np.uint8),
            "l.calib": rng.standard_normal((4, 6))}
    for name, array in kept.items():
        model.add(name, array)
    crit, spec = Criterion("stade"), SparsitySpec(ratio=0.5)
    out, _ = prune_container(model, calib, crit, spec)
    assert [e.name for e in out.entries()] == ["l", "l.bias", "l.mask", *kept]
    for name in kept:
        assert out.entry(name).dtype == model.entry(name).dtype
        assert out.get(name).tobytes() == model.get(name).tobytes()
    pruned, mask, _ = prune_layer("l", model.get_layer("l"), rows, crit, spec)
    assert out.get("l.bias").tobytes() == pruned.bias.tobytes()
    assert np.array_equal(out.get("l.mask"), mask) and not mask.all()


def test_bias_flag_behavior_per_criterion():
    rng = np.random.default_rng(4)
    rows = 5.0 + rng.standard_normal((60, 6))  # strongly offset features
    w = rng.uniform(0.5, 1.0, size=(6, 2))
    model, calib = single_layer_containers(w, None, rows)
    spec = SparsitySpec(ratio=0.5)
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
                                  SparsitySpec(ratio=0.5),
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
    spec = SparsitySpec(ratio=0.5)

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
        assert np.array_equal(out_a.get(f"{name}.mask"), out_b.get(f"{name}.mask"))


def test_thread_count_invariance():
    model, calib = toy_pair(seed=6)
    spec = SparsitySpec(n=2, m=4)
    out1, rep1 = prune_container(model, calib, Criterion("stade"), spec, threads=1)
    out4, rep4 = prune_container(model, calib, Criterion("stade"), spec, threads=4)
    for name in ("fc1", "fc2"):
        assert np.array_equal(out1.get_layer(name).weights,
                              out4.get_layer(name).weights)
    assert [r.reconstruction_mse for r in rep1.layers] == \
           [r.reconstruction_mse for r in rep4.layers]


@pytest.mark.parametrize("threads", [0, -3, 2.5, True])
def test_prune_container_threads_must_be_a_positive_integer(threads, tmp_path):
    model, calib = toy_pair()
    out = tmp_path / "out.pkt"
    with pytest.raises(InvalidArgument, match="threads"):
        prune_container(model, calib, Criterion("stade"), SparsitySpec(ratio=0.5),
                        threads=threads, out=str(out))
    assert os.listdir(tmp_path) == []  # refused before the output is staged
    prune_container(model, calib, Criterion("stade"), SparsitySpec(ratio=0.5),
                    threads=np.int64(2), out=str(out))
    assert load_container(str(out)).layer_names() == model.layer_names()


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
                                SparsitySpec(ratio=0.5))
    rec = report.layers[0]
    assert rec.criterion == "wanda"  # manifest flag drives the resolution
    assert any("disagrees" in w for w in rec.warnings)


@pytest.mark.parametrize("tag", ["magnitude", "wanda", "sparsegpt-score"])
def test_one_calibration_row_skips_the_centering_check(tag):
    # These criteria score from one row; the centering check needs two.
    rng = np.random.default_rng(10)
    layer = WeightLayer(rng.uniform(-1, 1, (4, 2)), None, centered=False)
    spec = SparsitySpec(ratio=0.5)
    _, mask, report = prune_layer("fc", layer, rng.standard_normal((1, 4)), Criterion(tag),
                                  spec)
    assert report.warnings == ["too few rows for the empirical centering check"]
    assert mask_violation(mask, spec) is None


def test_reconstruction_mse_identity():
    layer = WeightLayer(np.ones((3, 2)), np.zeros(2), centered=False)
    rows = np.random.default_rng(9).uniform(-1, 1, size=(20, 3))
    assert reconstruction_mse(layer, layer, rows) == 0.0


def test_reconstruction_mse_needs_layers_of_one_shape():
    layer = WeightLayer(np.ones((3, 2)), None, centered=False)
    narrower = WeightLayer(np.ones((3, 1)), None, centered=False)
    with pytest.raises(ShapeMismatch, match="layer shapes differ"):
        reconstruction_mse(layer, narrower, np.ones((5, 3)))


@pytest.mark.parametrize("m, h, n", [(4, 0, 10), (4, 2, 0)])
def test_reconstruction_mse_of_empty_output_is_zero(m, h, n):
    layer = WeightLayer(np.ones((m, h)), None, centered=False)
    assert reconstruction_mse(layer, layer, np.ones((n, m))) == 0.0


def test_reconstruction_mse_takes_one_product_of_the_removed_weights():
    # 2**53 + 1 rounds to 2**53, so the dense and pruned outputs on rows of
    # ones are the same float64; the removed weight's product is exactly 1.
    original = WeightLayer(np.array([[2.0**53], [1.0]]), None, centered=False)
    pruned = WeightLayer(np.array([[2.0**53], [0.0]]), None, centered=False)
    assert reconstruction_mse(original, pruned, np.ones((10, 2))) == 1.0


def test_outputs_that_overflow_do_not_hide_a_finite_error():
    # Every output overflows float64 (10 * 1e308), but the pruned weight's
    # product is 1 on every row.
    layer = WeightLayer(np.array([[1e308], [1.0]]), None, centered=False)
    rows = np.tile([10.0, 1.0], (10, 1))
    pruned = WeightLayer(np.array([[1e308], [0.0]]), None, centered=False)
    assert reconstruction_mse(layer, pruned, rows) == 1.0
    _, mask, report = prune_layer("fc", layer, rows, Criterion("magnitude"),
                                  SparsitySpec(ratio=0.5))
    assert mask.tolist() == [[False], [True]]
    assert report.reconstruction_mse == 1.0


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
                                SparsitySpec(ratio=0.5))
    payload = asdict(report)
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
        prune_layer("fc", layer, rows, Criterion(tag), SparsitySpec(ratio=0.5))


@pytest.mark.parametrize("bias_update_enabled", [False, True], ids=["mse", "bias"])
def test_overflowing_error_report_is_typed_error(bias_update_enabled):
    # Finite f64 weights and rows whose error (bias off) or summed bias
    # change (bias on) overflows float64 stop with a typed error, not a
    # RuntimeWarning from inside the report.
    layer = WeightLayer(np.full((2, 2), 1e300), None, centered=False)
    with pytest.raises(NonFiniteInput, match="overflow"):
        prune_layer("fc", layer, np.full((10, 2), 1e8), Criterion("magnitude"),
                    SparsitySpec(ratio=0.5),
                    bias_update_enabled=bias_update_enabled)


def test_infinite_reconstruction_error_is_typed_error():
    # With warnings ignored, an infinite error would reach the report, and
    # json.dump writes it as the non-JSON token Infinity.
    layer = WeightLayer(np.full((4, 3), 1e200), None, centered=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonFiniteInput, match="overflow"):
            prune_layer("fc", layer, np.ones((10, 4)), Criterion("magnitude"),
                        SparsitySpec(ratio=0.5))
        with pytest.raises(NonFiniteInput, match="overflow"):
            reconstruction_mse(layer, WeightLayer(np.zeros((4, 3)), None, False),
                               np.ones((10, 4)))


@pytest.mark.parametrize("criterion, spec, error", [
    (Criterion("wanda"), SparsitySpec.parse("2:4"), IndivisibleGroup),
    (Criterion("sparsegpt-score", damping=0.0), SparsitySpec(ratio=0.5),
     SingularGram),
], ids=["indivisible", "singular"])
def test_prune_container_error_names_the_layer(criterion, spec, error):
    model, calib = single_layer_containers(np.ones((6, 2)), None, np.ones((20, 6)))
    with pytest.raises(error, match="^layer 'l': ") as info:
        prune_container(model, calib, criterion, spec)
    assert type(info.value) is error and "'l'" not in str(info.value.__cause__)


def _f32_and_widened(x):
    x32 = np.asarray(x, dtype=np.float32)
    return x32, x32.astype(np.float64)


def _widened_bits(x):
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([4, 8, 12]), h=st.integers(1, 6),
       n=st.integers(2, 40), tag=st.sampled_from(CRITERION_TAGS), has_bias=st.booleans(),
       centered=st.booleans(), bias_update_enabled=st.sampled_from([None, False, True]),
       sparsity=st.sampled_from(["0.5", "2:4"]))
def test_float32_layer_prunes_like_its_float64_widening(
        seed, m, h, n, tag, has_bias, centered, bias_update_enabled, sparsity):
    # Loaded layers and rows are float32; each stage widens what it computes
    # on, so the result is the float64 widening's, bit for bit. A small block
    # puts the statistics through the blocked path.
    rng = np.random.default_rng(seed)
    w32, w64 = _f32_and_widened(rng.standard_normal((m, h)))
    b32, b64 = _f32_and_widened(rng.standard_normal(h)) if has_bias else (None, None)
    r32, r64 = _f32_and_widened(rng.uniform(-3, 3, m) + rng.standard_normal((n, m)))
    results = []
    with mock.patch.object(stats_module, "_BLOCK_ROWS", 4):
        for w, b, rows in ((w32, b32, r32), (w64, b64, r64)):
            results.append(prune_layer("fc", WeightLayer(w, b, centered), rows,
                                       Criterion(tag), SparsitySpec.parse(sparsity),
                                       bias_update_enabled))
    (p32, mask32, rep32), (p64, mask64, rep64) = results
    assert p32.weights.dtype == np.float32  # a pruned weight is a kept float32 value
    assert np.array_equal(mask32, mask64)
    assert _widened_bits(p32.weights) == _widened_bits(p64.weights)
    assert _widened_bits(p32.bias) == _widened_bits(p64.bias)
    assert asdict(rep32) == asdict(rep64)


@pytest.mark.parametrize("tag", ["stade", "wanda", "sparsegpt-score"])
@pytest.mark.parametrize("dtype", [np.int16, np.float16, np.bool_])
def test_any_dtype_rows_prune_like_their_float64_cast(tag, dtype):
    rng = np.random.default_rng(9)
    if dtype == np.bool_:
        rows = rng.random((30, 8)) < 0.4
    elif dtype == np.int16:
        rows = rng.integers(-3000, 3000, (30, 8), dtype=np.int16)
    else:
        rows = (rng.uniform(-3, 3, 8) + rng.standard_normal((30, 8))).astype(dtype)
    layer = WeightLayer(rng.standard_normal((8, 3)), rng.standard_normal(3), False)
    results = []
    with mock.patch.object(stats_module, "_BLOCK_ROWS", 4):
        for r in (rows, rows.astype(np.float64)):
            results.append(prune_layer("fc", layer, r, Criterion(tag),
                                       SparsitySpec.parse("2:4"), True))
    (p0, mask0, rep0), (p1, mask1, rep1) = results
    assert np.array_equal(mask0, mask1)
    assert p0.weights.tobytes() == p1.weights.tobytes()
    assert p0.bias.tobytes() == p1.bias.tobytes()
    assert asdict(rep0) == asdict(rep1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), h=st.integers(1, 6),
       n=st.integers(2, 40))
def test_float32_scores_gram_and_error_equal_their_float64_widening(seed, m, h, n):
    rng = np.random.default_rng(seed)
    w32, w64 = _f32_and_widened(rng.standard_normal((m, h)) * 3)
    r32, r64 = _f32_and_widened(rng.uniform(-3, 3, m) + rng.standard_normal((n, m)))
    grams = []
    for rows in (r32, r64):
        gram = GramAccumulator(m)
        gram.update(rows)
        grams.append(gram)
    assert grams[0].gram.tobytes() == grams[1].gram.tobytes()
    stats = stats_update(stats_init(m), r64)
    before = w32.tobytes(), w64.tobytes()
    w32.flags.writeable = w64.flags.writeable = False  # as a container's arrays are
    for tag in CRITERION_RULES:
        # sparsegpt-score squares the weights: a float32 square would round.
        # float32 weights are scored in their widened copy, float64 ones not.
        s32, s64 = (compute_scores(tag, w, stats=stats, gram=grams[1]) for w in (w32, w64))
        assert s32.dtype == np.float64 and s32.tobytes() == s64.tobytes(), tag
        assert (w32.tobytes(), w64.tobytes()) == before, tag
    b32, b64 = _f32_and_widened(rng.standard_normal(h))
    mask = rng.random((m, h)) < 0.5
    layers = [(WeightLayer(w, b, False), WeightLayer(np.where(mask, 0.0, w), None, False))
              for w, b in ((w32, b32), (w64, b64))]
    errors = [reconstruction_mse(*pair, rows) for pair, rows in zip(layers, (r32, r64))]
    assert errors[0] == errors[1]


def _whole_error(original, pruned, rows):
    """Test-local one-product error report that never splits the rows: the
    rows widened at once times the whole widened weight difference, plus
    b0 - b1 (a missing bias as zero). Returns (difference, error)."""
    def bias(layer):
        return np.zeros(layer.h) if layer.bias is None else layer.bias.astype(np.float64)

    rows = np.asarray(rows, dtype=np.float64)
    weights = original.weights.astype(np.float64) - pruned.weights.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = rows @ weights + (bias(original) - bias(pruned))
        return diff, float(np.mean(diff ** 2)) if diff.size else 0.0


def _same_bits_as_whole(original, pruned, rows, block):
    """Whether the chunked difference and error, with ``_EVAL_ROWS`` set to
    ``block``, have the bits of the whole product's. The error alone would
    hide a last-bit change in a few outputs."""
    with mock.patch.object(pruner_module, "_EVAL_ROWS", block):
        diff = pruner_module._removed_error(
            np.subtract(original.weights, pruned.weights, dtype=np.float64),
            _bias_change(original, pruned), rows)
        error = reconstruction_mse(original, pruned, rows)
    want_diff, want_error = _whole_error(original, pruned, rows)
    return diff.tobytes() == want_diff.tobytes() and error.hex() == want_error.hex()


def _row_counts(block):
    return (1, block - 1, block, block + 1, 2 * block + 1)


def _error_pair(seed, m, h, n, w_dtype, r_dtype, bias):
    """A dense layer, its half-pruned copy (biases per ``bias``) and rows."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, h)).astype(w_dtype)
    biases = {side: rng.standard_normal(h).astype(w_dtype) if side in bias else None
              for side in ("dense", "pruned")}
    original = WeightLayer(w, biases["dense"], False)
    pruned = WeightLayer(np.where(rng.random((m, h)) < 0.5, 0.0, w), biases["pruned"], False)
    rows = (rng.uniform(-3, 3, m) + rng.standard_normal((n, m))).astype(r_dtype)
    return original, pruned, rows


# (m, h): the first three split at 48 rows, the last three are too small to;
# a 48-row product of (512, 32) would go to OpenBLAS's small-matrix kernel.
# Every width is a multiple of 8: see the one-BLAS-thread test for others.
_SHAPES = [(64, 1000), (300, 256), (520, 512), (512, 32), (520, 64), (3, 8)]
_BIASES = [(), ("dense",), ("pruned",), ("dense", "pruned")]


def test_eval_rows_is_a_multiple_of_48():
    # Every chunk then starts on a row group of the BLAS kernels (module docstring).
    assert pruner_module._EVAL_ROWS % 48 == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(_SHAPES),
       block=st.sampled_from([48, 96]), case=st.integers(0, 4),
       w_dtype=st.sampled_from([np.float32, np.float64]),
       r_dtype=st.sampled_from([np.float32, np.float64]), bias=st.sampled_from(_BIASES))
@example(seed=1, shape=(300, 256), block=48, case=3, w_dtype=np.float32,
         r_dtype=np.float32, bias=())  # no lone one-row chunk
@example(seed=1, shape=(512, 32), block=48, case=4, w_dtype=np.float32,
         r_dtype=np.float32, bias=())  # no small-matrix chunk
def test_chunked_error_has_the_whole_outputs_bits(seed, shape, block, case, w_dtype,
                                                  r_dtype, bias):
    n = _row_counts(block)[case]
    original, pruned, rows = _error_pair(seed, *shape, n, w_dtype, r_dtype, bias)
    assert _same_bits_as_whole(original, pruned, rows, block)


@pytest.mark.parametrize("m, h, n, passes", [
    (256, 256, 1, [(0, 1)]),
    (256, 256, 96, [(0, 48), (48, 96)]),
    (256, 256, 97, [(0, 48), (48, 97)]),  # a lone last row joins the chunk before it
    (256, 256, 143, [(0, 48), (48, 143)]),
    (3, 8, 143, [(0, 143)]),  # too small to split
])
def test_error_chunks_follow_the_split_rule(m, h, n, passes):
    original, pruned, rows = _error_pair(0, m, h, n, np.float32, np.float32, ())
    seen = []

    def matrix(x, what, width=None):
        seen.append(x.base is rows and (x.shape[0], x.ctypes.data))
        return stats_module._matrix(x, what, width)

    with mock.patch.object(pruner_module, "_EVAL_ROWS", 48), \
            mock.patch.object(pruner_module, "_matrix", matrix):
        reconstruction_mse(original, pruned, rows)
    itemsize, start = rows.itemsize * m, rows.ctypes.data
    want = [(b - a, start + a * itemsize) for a, b in passes]
    assert seen == want  # one pass: each chunk is multiplied once


def test_chunked_error_still_raises_typed_errors():
    layer = WeightLayer(np.ones((256, 256), np.float32), None, False)
    rows = np.ones((97, 256), np.float32)
    rows[-1, 5] = np.nan  # in the last chunk
    with mock.patch.object(pruner_module, "_EVAL_ROWS", 48):
        with pytest.raises(NonFiniteInput, match="rows contains NaN/Inf"):
            reconstruction_mse(layer, layer, rows)
        with pytest.raises(NonFiniteInput, match="overflow"):
            reconstruction_mse(WeightLayer(np.full((256, 256), 1e200), None, False),
                               WeightLayer(np.zeros((256, 256)), None, False),
                               np.ones((97, 256)))


def _odd_width_mismatches():
    """The (block, m, h, n) cases, with widths that are not a multiple of 8,
    whose chunked error differs from the whole outputs' error."""
    bad = []
    for block in (48, 96):
        for m, h in ((64, 1001), (300, 257), (520, 255), (2048, 33)):
            for n in (*_row_counts(block), 2 * block + 11, 4 * block + 19):
                for seed, (w_dtype, r_dtype) in enumerate(((np.float32, np.float32),
                                                           (np.float64, np.float64))):
                    original, pruned, rows = _error_pair(seed, m, h, n, w_dtype, r_dtype,
                                                         ("dense",))
                    if not _same_bits_as_whole(original, pruned, rows, block):
                        bad.append([block, m, h, n])
    return bad


def test_chunked_error_has_the_whole_outputs_bits_at_odd_widths_on_one_blas_thread():
    # With several BLAS threads OpenBLAS splits the rows between them by the
    # row count, and at these widths the whole product's bits themselves
    # change with the thread count; on one thread the chunks keep them.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import test_pruner; "
              "print(json.dumps(test_pruner._odd_width_mismatches()))")
    proc = subprocess.run([sys.executable, "-c", script, os.path.dirname(__file__)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
