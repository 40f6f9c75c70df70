#!/usr/bin/env python3
"""Criterion comparison experiment on synthetic layers.

Runs three studies and prints their tables:

1. uncentered, scale-heterogeneous inputs at several sparsities: held-out
   reconstruction MSE of magnitude vs wanda vs stade, with per-seed win
   fractions;
2. a first layer with exactly centered input: wanda vs stade vs the
   per-layer stade-w protocol (stade-w should track wanda on the centered
   layer and stade on the rectified one);
3. single-prune misranking rates against exhaustive enumeration when one
   feature is a near-constant offset.

Usage: python scripts/compare_criteria.py [--seeds 20] [--samples 256]
       [--out results.json]
"""

import argparse
import json
from dataclasses import asdict

from prunekit import (
    SparsitySpec,
    ToyMlpConfig,
    check_criterion_optimality,
    run_comparison,
)


def ordering_study(seeds, samples):
    results = {}
    config = ToyMlpConfig(dims=(16, 32, 8), norm="none", samples=samples)
    for sparsity in ("0.5", "2:4"):
        spec = SparsitySpec.parse(sparsity)
        table = run_comparison(["magnitude", "wanda", "stade"], spec, seeds,
                               config=config)
        print(f"\n== uncentered inputs, sparsity {sparsity} "
              f"(mean held-out MSE over {seeds} seeds) ==")
        print(table.to_text())
        wins = {}
        for layer in table.layers:
            wins[f"stade<=wanda:{layer}"] = table.win_fraction("stade", "wanda",
                                                               layer)
            wins[f"wanda<=magnitude:{layer}"] = table.win_fraction(
                "wanda", "magnitude", layer)
        print("win fractions:",
              "  ".join(f"{k}={v:.2f}" for k, v in wins.items()))
        results[sparsity] = {"table": asdict(table), "win_fractions": wins}
    return results


def centered_study(seeds, samples):
    config = ToyMlpConfig(dims=(16, 32, 8), norm="layernorm-like", samples=samples)
    spec = SparsitySpec.parse("0.5")
    table = run_comparison(["wanda", "stade", "stade-w"], spec, seeds,
                           config=config)
    print(f"\n== centered first layer, sparsity 0.5 ==")
    print(table.to_text())
    print("stade-w resolved per layer:", table.resolved["stade-w"])
    same_fc1 = table.layer_mse["stade-w"]["fc1"] == table.layer_mse["wanda"]["fc1"]
    print(f"stade-w reproduces wanda on the centered layer: {same_fc1}")
    return {"table": asdict(table), "stade_w_matches_wanda_fc1": same_fc1}


def misranking_study(trials, seed):
    print(f"\n== single-prune misranking vs enumeration "
          f"(one near-constant offset feature, {trials} trials) ==")
    rates = {}
    for tag in ("wanda", "stade"):
        res = check_criterion_optimality(tag, trials, seed, data="offset")
        rates[tag] = res.mismatches / trials
        print(f"{tag:8s} mismatch rate {rates[tag]:.3f}")
    return rates


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write all results as JSON")
    args = parser.parse_args()

    results = {
        "ordering": ordering_study(args.seeds, args.samples),
        "centered": centered_study(args.seeds, args.samples),
        "misranking": misranking_study(args.trials, args.seed),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
