"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json repeats the names, units, directions and bounds (run.py
refuses to run if the two disagree); the meaning of each end-to-end metric
and the end-to-end metric each per-layer metric should move, on which
workload, live only here, because BENCHMARK.json admits no other keys.
"""

from __future__ import annotations

# name: (unit, better, bound, meaning)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25,
               "median wall time of one repetition's cli.main calls: load, work, "
               "save/report; a verify repetition is its four calls timed together"),
    "work_per_s": ("units/s", "higher", 0.25,
                   "work units per repetition / wall_s; units are weights scored "
                   "(prune) or oracle trials (verify-oracle)"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "median peak RSS (ru_maxrss) of the repetition's process, 1e6 bytes"),
    "setup_s": ("s", "lower", 0.25,
                "median time for a fresh process to import prunekit.cli "
                "(the package, numpy, scipy, argparse); every CLI call pays it"),
    "ok_frac": ("ratio", "higher", 0.01,
                "1 - fail_frac: commands that exited as documented, printed a "
                "summary line and passed the output check, over commands attempted"),
}

# name: (unit, better, the end-to-end metric it should move, on which workload)
PER_LAYER = {
    "container.load_s": ("s", "lower", "wall_s and peak_rss_mb on prune-sparsegpt-2of4; "
                         "less on prune-unstructured; none on verify-oracle"),
    "container.save_s": ("s", "lower", "wall_s on prune-unstructured and "
                         "prune-sparsegpt-2of4; none on verify-oracle"),
    "container.get_layer_s": ("s", "lower", "wall_s on both prune workloads, small; "
                              "none on verify-oracle"),
    "container.load_mb": ("MB", "lower", "computed from file sizes; peak_rss_mb and "
                          "wall_s on prune-sparsegpt-2of4"),
    "container.save_mb": ("MB", "lower", "computed from file sizes; wall_s on "
                          "prune-unstructured"),
    "stats.update_s": ("s", "lower", "wall_s on verify-oracle (per-call cost) and on "
                       "prune-sparsegpt-2of4 (6.5k rows x 2048); unchanged elsewhere"),
    "stats.update_calls": ("count", "lower", "exact; wall_s on verify-oracle"),
    "stats.rows": ("count", "lower", "exact; wall_s on prune-sparsegpt-2of4"),
    "criteria.score_s": ("s", "lower", "wall_s on prune-sparsegpt-2of4; about 5% of "
                         "prune-unstructured; per-call cost on verify-oracle"),
    "criteria.gram_s": ("s", "lower", "wall_s on prune-sparsegpt-2of4 only"),
    "criteria.score_calls": ("count", "lower", "exact; wall_s on verify-oracle"),
    "criteria.flops": ("flop", "lower", "computed from shapes; wall_s on "
                       "prune-sparsegpt-2of4"),
    "masks.build_s": ("s", "lower", "wall_s on prune-unstructured; about 4% of "
                      "prune-sparsegpt-2of4; none on verify-oracle"),
    "masks.check_s": ("s", "lower", "wall_s on both prune workloads, small"),
    "masks.pruned": ("count", "lower", "exact, fixed by the sparsity spec; moves nothing"),
    "compensate.bias_s": ("s", "lower", "wall_s on prune-unstructured, on its "
                          "stade-resolved layers only"),
    "compensate.layers_updated": ("count", "lower", "exact; 2 on prune-unstructured, "
                                  "0 elsewhere"),
    "pruner.layer_s": ("s", "lower", "wall_s on both prune workloads"),
    "pruner.layer_self_s": ("s", "lower", "wall_s on both prune workloads"),
    "pruner.eval_s": ("s", "lower", "wall_s on both prune workloads, about 18-20% of each"),
    "pruner.container_s": ("s", "lower", "wall_s on both prune workloads"),
    "parallel.efficiency": ("ratio", "higher", "sum of pruner.layer_s / (threads x "
                            "pruner.container_s); wall_s on the prune workloads"),
    "oracle.check_s": ("s", "lower", "wall_s and work_per_s on verify-oracle only"),
    "oracle.enumerate_s": ("s", "lower", "wall_s and work_per_s on verify-oracle only"),
    "oracle.enumerate_calls": ("count", "lower", "exact; work_per_s on verify-oracle"),
    "oracle.self_s": ("s", "lower", "wall_s and work_per_s on verify-oracle only"),
    "oracle.mismatches": ("count", "lower", "exact; the wanda/offset counterexamples "
                          "on verify-oracle; moves nothing"),
    "cli.self_s": ("s", "lower", "wall_s on every workload, expected small"),
    "trace.overhead_s": ("s", "lower", "none: traced wall_s minus untraced wall_s, "
                         "the trace's own cost"),
}

# Exact counts, measured or computed from sizes and shapes: they must repeat
# across repetitions.
COUNTS = tuple(name for name, (unit, _, _) in PER_LAYER.items()
               if unit in ("count", "MB", "flop"))
COMPUTED = tuple(name for name, (_, _, moves) in PER_LAYER.items()
                 if moves.startswith("computed"))
