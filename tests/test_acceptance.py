"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints
a single pass line (visible with ``pytest tests/test_acceptance.py -v -s``).
All runs are seeded and deterministic.
"""

import time

import numpy as np

from prunekit import (
    Criterion,
    GramAccumulator,
    SparsitySpec,
    TensorContainer,
    ToyMlpConfig,
    WeightLayer,
    bias_update,
    brute_force_single_prune,
    build_mask,
    check_criterion_optimality,
    compute_scores,
    gen_toy_mlp,
    load_container,
    mask_violation,
    prune_container,
    random_instance,
    reconstruction_mse,
    run_comparison,
    save_container,
    stats_init,
    stats_update,
)

SEED_STREAMS = 101
SEED_STADE = 202
SEED_WANDA = 303
SEED_OFFSET = 404
SEED_STAR = 505
SEED_MASKS = 606
SEED_GRAM = 707
SEED_CONTAINERS = 808


def _report(num, name, elapsed, detail=""):
    suffix = f" {detail}" if detail else ""
    print(f"[acceptance {num:02d}] {name}: PASS ({elapsed:.2f}s){suffix}")


def test_01_streaming_statistics_match_two_pass():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED_STREAMS)
    for _ in range(200):
        n = int(rng.integers(1, 4097))
        m = int(rng.integers(1, 65))
        mu = rng.uniform(-3.0, 3.0, size=m)
        sigma = rng.uniform(0.5, 2.0, size=m)
        rows = mu + sigma * rng.standard_normal((n, m))
        cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(0, 11))))
        bounds = [0, *cuts.tolist(), n]
        acc = stats_init(m)
        for a, b in zip(bounds, bounds[1:]):
            acc = stats_update(acc, rows[a:b])
        assert acc.n == n
        two_pass_var = rows.var(axis=0, ddof=1) if n > 1 else np.zeros(m)
        np.testing.assert_allclose(acc.mean, rows.mean(axis=0),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(acc.variance(), np.maximum(two_pass_var, 0),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(acc.sumsq, (rows**2).sum(axis=0),
                                   rtol=1e-9, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, "streaming statistics vs two-pass (200 streams, rel 1e-9)", elapsed)


def test_02_stade_matches_enumeration_with_bias():
    start = time.perf_counter()
    result = check_criterion_optimality("stade", trials=1000, seed=SEED_STADE)
    elapsed = time.perf_counter() - start
    assert result.matches == 1000, result.first_counterexample
    assert elapsed < 30.0
    _report(2, "stade argmin = enumeration argmin (bias refit)", elapsed,
            f"{result.matches}/1000")


def test_03_wanda_matches_enumeration_on_centered_data():
    start = time.perf_counter()
    result = check_criterion_optimality("wanda", trials=1000, seed=SEED_WANDA)
    elapsed = time.perf_counter() - start
    assert result.matches == 1000, result.first_counterexample
    assert result.max_bias_shift <= 1e-9
    _report(3, "wanda argmin = enumeration argmin on centered data", elapsed,
            f"{result.matches}/1000, max bias shift {result.max_bias_shift:.2e}")


def test_04_wanda_misranks_offset_features_stade_does_not():
    start = time.perf_counter()
    wanda = check_criterion_optimality("wanda", trials=1000, seed=SEED_OFFSET,
                                       data="offset")
    stade = check_criterion_optimality("stade", trials=1000, seed=SEED_OFFSET,
                                       data="offset")
    elapsed = time.perf_counter() - start
    assert wanda.mismatches >= 500, f"only {wanda.mismatches}/1000 mismatches"
    assert stade.matches == 1000, stade.first_counterexample
    _report(4, "wanda misranks near-constant offset features", elapsed,
            f"wanda mismatch {wanda.mismatches}/1000, stade match 1000/1000")


def test_05_stade_star_matches_enumeration_without_bias():
    start = time.perf_counter()
    result = check_criterion_optimality("stade-star", trials=1000, seed=SEED_STAR)
    elapsed = time.perf_counter() - start
    assert result.matches == 1000, result.first_counterexample
    assert not result.allow_bias
    _report(5, "stade-star argmin = enumeration argmin (bias frozen)", elapsed,
            f"{result.matches}/1000")


def test_06_closed_form_bias_matches_grid_search():
    start = time.perf_counter()
    step = 1e-4
    children = np.random.SeedSequence(SEED_STADE).spawn(1000)
    for child in children:
        rng = np.random.default_rng(child)
        calib, w, b0 = random_instance(rng)
        j, b_closed, obj = brute_force_single_prune(w, b0, calib, allow_bias=True)
        residual = calib[:, j] * w[j] + b0  # dense minus biasless pruned output
        mean_r, mean_r2 = residual.mean(), (residual**2).mean()
        span = abs(w[j]) * np.abs(calib[:, j]).max() + step
        grid = np.arange(b0 - span, b0 + span + step, step)
        objective = mean_r2 - 2.0 * grid * mean_r + grid**2
        best_grid = float(objective.min())
        assert best_grid - obj >= -1e-9  # grid cannot beat the true minimizer
        assert abs(best_grid - obj) <= 1e-3

    # Constant-feature prunes reconstruct exactly.
    rng = np.random.default_rng(SEED_STADE + 1)
    worst = 0.0
    for _ in range(100):
        calib, w, b0 = random_instance(rng)
        k = int(rng.integers(0, calib.shape[1]))
        calib[:, k] = rng.uniform(-5.0, 5.0)
        stats = stats_update(stats_init(calib.shape[1]), calib)
        mask = np.zeros((calib.shape[1], 1), dtype=bool)
        mask[k, 0] = True
        layer = WeightLayer(w[:, None], np.array([b0]), centered=False)
        pruned_w = np.where(mask, 0.0, layer.weights)
        pruned = WeightLayer(pruned_w, bias_update(layer, mask, stats).bias,
                             centered=False)
        worst = max(worst, reconstruction_mse(layer, pruned, calib))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    _report(6, "closed-form bias = 1e-4 grid minimizer; constant prunes exact",
            elapsed, f"worst constant-feature MSE {worst:.2e}")


def test_07_masks_valid_and_ranking_only():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED_MASKS)
    specs = [SparsitySpec(ratio=p) for p in (0.0, 0.25, 0.5, 1.0)]
    specs += [SparsitySpec(n=2, m=4), SparsitySpec(n=4, m=8)]
    pairs = []
    for i in range(500):
        m = int(rng.choice([8, 16, 24, 32]))
        h = int(rng.integers(1, 17))
        # scores on a 1e-6 grid: strictly increasing transforms cannot
        # round distinct values into new ties
        scores = rng.integers(0, 10_000_000, size=(m, h)) / 1e6
        spec = specs[i % len(specs)]
        mask = build_mask(scores, spec)
        assert mask_violation(mask, spec) is None
        pairs.append((scores, spec, mask))
    transforms = [lambda s: 3.0 * s + 7.0, np.expm1, np.arctan]
    for i in range(100):
        scores, spec, mask = pairs[i * 5 % len(pairs)]
        rescored = transforms[i % len(transforms)](scores)
        assert np.array_equal(build_mask(rescored, spec), mask)
    elapsed = time.perf_counter() - start
    _report(7, "500 masks valid, 100 monotone re-scorings invariant", elapsed)


def test_08_inverse_gram_diagonal_matches_dense_inversion():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED_GRAM)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 33))
        rows = rng.standard_normal((m + 4, m)) * rng.uniform(0.5, 2.0, size=m)
        gram = GramAccumulator(m)
        gram.update(rows)
        lam = 0.01 * float(np.mean(np.diag(gram.gram)))
        scores = compute_scores("sparsegpt-score", np.ones((m, 1)), gram=gram, damping=lam)
        factored_diag = 1.0 / scores[:, 0]
        dense_diag = np.diag(np.linalg.inv(gram.gram + lam * np.eye(m)))
        rel = np.abs(factored_diag - dense_diag) / np.abs(dense_diag)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    _report(8, "damped inverse-Gram diagonal vs dense inversion", elapsed,
            f"worst rel err {worst:.2e}")


def test_09_stade_w_resolution_and_mask_identity():
    start = time.perf_counter()
    model, calib = gen_toy_mlp(9, ToyMlpConfig((16, 32, 8), "layernorm-like", 256))
    spec = SparsitySpec(ratio=0.5)
    out_sw, report = prune_container(model, calib, Criterion("stade-w"), spec)
    assert [r.criterion for r in report.layers] == ["wanda", "stade"]
    out_w, _ = prune_container(model, calib, Criterion("wanda"), spec)
    assert np.array_equal(out_sw.get("fc1.mask"), out_w.get("fc1.mask"))
    elapsed = time.perf_counter() - start
    _report(9, "stade-w resolves {wanda, stade}; centered mask = wanda's", elapsed)


def test_10_qualitative_criterion_ordering():
    start = time.perf_counter()
    config = ToyMlpConfig(dims=(16, 32, 8), norm="none", samples=256)
    table = run_comparison(["magnitude", "wanda", "stade"],
                           SparsitySpec(ratio=0.5), seeds=20,
                           config=config)
    fractions = {}
    for layer in table.layers:
        fractions[f"stade<=wanda {layer}"] = table.win_fraction("stade", "wanda",
                                                                layer)
        fractions[f"wanda<=magnitude {layer}"] = table.win_fraction(
            "wanda", "magnitude", layer)
    elapsed = time.perf_counter() - start
    for name, frac in fractions.items():
        assert frac >= 0.8, f"{name}: {frac:.2f} < 0.80"
    assert elapsed < 120.0
    detail = ", ".join(f"{k} {v:.2f}" for k, v in fractions.items())
    _report(10, "criterion ordering over 20 seeds at 50% sparsity", elapsed, detail)


def test_11_container_round_trip_bit_exact(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED_CONTAINERS)
    for i in range(100):
        c = TensorContainer()
        for k in range(int(rng.integers(0, 4))):
            m = int(rng.integers(1, 9))
            h = int(rng.integers(1, 9))
            weights = rng.standard_normal((m, h)).astype(np.float32)
            bias = (rng.standard_normal(h).astype(np.float32)
                    if rng.random() < 0.5 else None)
            name = f"layer{k}"
            c.add_layer(name, WeightLayer(weights.astype(np.float64),
                                          None if bias is None else
                                          bias.astype(np.float64),
                                          bool(rng.random() < 0.5)))
            if rng.random() < 0.5:
                c.add_mask(name, rng.random((m, h)) < 0.5)
            if rng.random() < 0.3:
                c.add(f"{name}.calib",
                      rng.standard_normal((4, m)).astype(np.float32))
        p1 = tmp_path / f"{i}_a.pkt"
        p2 = tmp_path / f"{i}_b.pkt"
        save_container(c, str(p1))
        loaded = load_container(str(p1))
        for entry in c.entries():
            assert np.array_equal(loaded.get(entry.name), entry.array)
        save_container(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
    elapsed = time.perf_counter() - start
    _report(11, "100 random containers round-trip bit-exactly", elapsed)
