import numpy as np
import pytest

from prunekit import (
    Criterion,
    SparsitySpec,
    ToyMlpConfig,
    classify_centered,
    forward_toy,
    gen_toy_mlp,
    prune_container,
    run_comparison,
    save_container,
    stats_init,
    stats_update,
)
from prunekit.pruner import HOLDOUT_FRACTION, split_holdout


def full_stats(rows):
    return stats_update(stats_init(rows.shape[1]), rows)


def test_layernorm_like_input_is_exactly_centered():
    model, calib = gen_toy_mlp(0, ToyMlpConfig((8, 16, 4), "layernorm-like", 128))
    rows = calib.get("fc1.calib")
    assert np.abs(rows.mean(axis=0)).max() <= 1e-7
    assert classify_centered(full_stats(rows))
    assert model.get_layer("fc1").centered is True
    assert model.get_layer("fc2").centered is False


def test_rmsnorm_like_scales_without_centering():
    model, calib = gen_toy_mlp(1, ToyMlpConfig((8, 16, 4), "rmsnorm-like", 128))
    rows = calib.get("fc1.calib")
    rms = np.sqrt(np.mean(rows**2, axis=0))
    np.testing.assert_allclose(rms, 1.0, rtol=1e-3)
    assert not classify_centered(full_stats(rows))
    assert model.get_layer("fc1").centered is False


def test_rectified_hidden_activations_are_uncentered():
    _, calib = gen_toy_mlp(2, ToyMlpConfig((8, 16, 4), "rmsnorm-like", 256))
    hidden = calib.get("fc2.calib")
    assert (hidden >= 0).all()
    assert not classify_centered(full_stats(hidden))


def test_raw_input_keeps_offsets():
    model, calib = gen_toy_mlp(3, ToyMlpConfig((8, 16, 4), "none", 128))
    assert model.get_layer("fc1").centered is False
    rows = calib.get("fc1.calib")
    assert np.abs(rows.mean(axis=0)).max() > 0.1


def test_generation_deterministic(tmp_path):
    paths = []
    for i in range(2):
        model, calib = gen_toy_mlp(7, ToyMlpConfig((6, 12, 3), "layernorm-like", 64))
        mp, cp = tmp_path / f"m{i}.pkt", tmp_path / f"c{i}.pkt"
        save_container(model, str(mp))
        save_container(calib, str(cp))
        paths.append((mp, cp))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_calib_values_survive_f32_storage():
    _, calib = gen_toy_mlp(4, ToyMlpConfig((6, 12, 3), "none", 64))
    rows = calib.get("fc1.calib")
    assert np.array_equal(rows, rows.astype(np.float32).astype(np.float64))


def test_forward_matches_captured_activations():
    model, calib = gen_toy_mlp(5, ToyMlpConfig((6, 12, 3), "none", 64))
    x = calib.get("fc1.calib")
    fc1 = model.get_layer("fc1")
    hidden = np.maximum(x @ fc1.weights + fc1.bias, 0.0)
    np.testing.assert_allclose(hidden, calib.get("fc2.calib"), atol=1e-5)
    out = forward_toy(model, x)
    assert out.shape == (64, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        ToyMlpConfig(dims=(4, 8))
    with pytest.raises(ValueError):
        ToyMlpConfig(norm="batchnorm")
    with pytest.raises(ValueError):
        ToyMlpConfig(samples=2)


def test_comparison_table_complete_and_reproducible():
    config = ToyMlpConfig(dims=(8, 16, 4), norm="none", samples=96)
    spec = SparsitySpec.unstructured(0.5)
    table = run_comparison(["wanda", "stade"], spec, seeds=3, config=config)
    assert table.criteria == ["wanda", "stade"]
    for tag in table.criteria:
        for layer in table.layers:
            assert len(table.layer_mse[tag][layer]) == 3
        assert len(table.e2e_mse[tag]) == 3
    again = run_comparison(["wanda", "stade"], spec, seeds=3, config=config)
    assert table.to_dict() == again.to_dict()


def test_comparison_requires_two_criteria():
    with pytest.raises(ValueError):
        run_comparison(["wanda"], SparsitySpec.unstructured(0.5), seeds=2)


@pytest.mark.parametrize("criteria", [
    ["wanda", "stade", "wanda"],
    [Criterion("sparsegpt-score", damping=0.1), Criterion("sparsegpt-score", damping=1.0)],
], ids=["same-tag", "same-tag-other-damping"])
def test_comparison_rejects_repeated_tags(criteria):
    with pytest.raises(ValueError, match="repeats"):
        run_comparison(criteria, SparsitySpec.unstructured(0.5), seeds=1)


def test_identical_resolution_gives_identical_mse():
    # On a centered layer stade-w resolves to wanda, so both runs build the
    # same masks and report the same error for that layer.
    config = ToyMlpConfig(dims=(8, 16, 4), norm="layernorm-like", samples=96)
    spec = SparsitySpec.unstructured(0.5)
    table = run_comparison(["wanda", "stade-w"], spec, seeds=2, config=config)
    assert table.layer_mse["wanda"]["fc1"] == table.layer_mse["stade-w"]["fc1"]
    assert table.resolved["stade-w"] == ["wanda", "stade"]


@pytest.mark.parametrize("samples", [4, 64])
def test_e2e_error_uses_the_layer_holdout_rows(samples):
    # At 4 samples the held-out tail is empty (floor(0.2 * 4) = 0), so every
    # layer is scored on all rows; at 64 it is the last 12 rows. The
    # end-to-end error must be scored on the same rows as the layers.
    config = ToyMlpConfig(dims=(6, 12, 3), norm="none", samples=samples)
    spec = SparsitySpec.unstructured(0.5)
    table = run_comparison(["wanda", "stade"], spec, seeds=1, config=config)
    model, calib = gen_toy_mlp(0, config)
    _, rows = split_holdout(calib.get("fc1.calib"), HOLDOUT_FRACTION)
    assert len(rows) == (samples if samples == 4 else 12)
    for tag in table.criteria:
        pruned, _ = prune_container(model, calib, Criterion(tag), spec)
        expected = np.mean((forward_toy(model, rows) - forward_toy(pruned, rows)) ** 2)
        assert table.e2e_mse[tag] == [float(expected)]


def test_table_text_is_aligned():
    config = ToyMlpConfig(dims=(6, 12, 3), norm="none", samples=64)
    table = run_comparison(["magnitude", "wanda"],
                           SparsitySpec.unstructured(0.25), seeds=2, config=config)
    lines = table.to_text().splitlines()
    assert lines[0].startswith("criterion")
    assert len(lines) == 3
    assert "end-to-end" in lines[0]
