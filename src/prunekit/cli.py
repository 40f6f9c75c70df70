"""Command-line entry point.

Subcommands: ``gen`` (write a toy model + calibration pair), ``stats``
(accumulate calibration statistics into a container), ``prune`` (prune a
model container layer-wise), ``verify`` (check a criterion against the
exhaustive single-prune enumerator), and ``bench`` (criterion comparison
over seeded toy models).

Exit codes: 0 success, 1 validation failure (including a verify
counterexample), 2 usage error. Every successful run, and every verify run,
prints a single-line JSON summary as its final stdout line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .container import TensorContainer, load_container, save_container
from .criteria import CHECKABLE_TAGS, CRITERION_TAGS, Criterion
from .errors import InvalidRatio, IoFailure, PruneKitError
from .harness import NORM_KINDS, ToyMlpConfig, gen_toy_mlp, run_comparison
from .masks import SparsitySpec
from .oracle import DATA_REGIMES, check_criterion_optimality
from .parallel import resolve_threads
from .pruner import prune_container
from .stats import stats_init, stats_to_container, stats_update

_STATS_CHUNK = 256


def _dims(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}; expected d_in,d_hidden,d_out")
    if len(parts) != 3 or any(d < 1 for d in parts):
        raise argparse.ArgumentTypeError(f"bad dims {text!r}; expected three positive sizes")
    return parts


def _sparsity(text: str) -> SparsitySpec:
    try:
        return SparsitySpec.parse(text)
    except InvalidRatio as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


_COMMON = {
    "seed": dict(type=int, default=0, help="base RNG seed"),
    "out": dict(help="primary output path"),
    "report": dict(help="write the detailed JSON report here"),
    "threads": dict(default="1", help="worker cap: a count or 'auto'"),
}


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_COMMON[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prunekit",
                                     description="post-training weight pruning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a toy model and calibration containers")
    _add_common(p, "seed", "out", "report")
    p.add_argument("--dims", type=_dims, default=(16, 32, 8),
                   help="d_in,d_hidden,d_out (default 16,32,8)")
    p.add_argument("--norm", choices=NORM_KINDS, default="none")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--calib-out", required=True, help="calibration container path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="accumulate per-layer calibration statistics")
    _add_common(p, "out", "report")
    p.add_argument("--calib", required=True, help="calibration container path")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("prune", help="prune every layer of a model container")
    _add_common(p, "out", "report", "threads")
    p.add_argument("--model", required=True, help="model container path")
    p.add_argument("--calib", required=True, help="calibration container path")
    p.add_argument("--criterion", required=True, choices=CRITERION_TAGS)
    p.add_argument("--sparsity", required=True, type=_sparsity,
                   help="ratio like 0.5 or pattern like 2:4")
    p.add_argument("--bias-update", choices=("on", "off", "auto"), default="auto",
                   help="auto = per-criterion default")
    p.add_argument("--damping",
                   help="sparsegpt-score only: a float or 'auto' (the default)")
    p.add_argument("--holdout", type=float, default=0.2,
                   help="fraction of calibration rows held out for the error report")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("verify", help="check a criterion against brute-force enumeration")
    _add_common(p, "seed", "report", "threads")
    p.add_argument("--criterion", required=True, choices=CHECKABLE_TAGS)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--data", choices=("auto", *DATA_REGIMES), default="auto")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="compare criteria on seeded toy models")
    _add_common(p, "seed", "out", "threads")
    p.add_argument("--criteria", required=True,
                   help="comma-separated criterion tags (at least two)")
    p.add_argument("--sparsity", required=True, type=_sparsity)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--dims", type=_dims, default=(16, 32, 8))
    p.add_argument("--norm", choices=NORM_KINDS, default="none")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--bias-update", choices=("on", "off", "auto"), default="auto")
    p.set_defaults(func=_cmd_bench)
    return parser


def _bias_flag(value: str) -> bool | None:
    return {"on": True, "off": False, "auto": None}[value]


def _write_report(path: str | None, payload: dict) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise IoFailure(f"cannot write report to {path!r}: {exc}") from exc


def _cmd_gen(args) -> tuple[int, dict]:
    if not args.out:
        raise PruneKitError("gen requires --out for the model container")
    model, calib = gen_toy_mlp(args.seed, args.dims, args.norm, args.samples)
    save_container(model, args.out)
    save_container(calib, args.calib_out)
    summary = {
        "command": "gen",
        "seed": args.seed,
        "norm": args.norm,
        "dims": list(args.dims),
        "samples": args.samples,
        "layers": model.layer_names(),
        "model": args.out,
        "calib": args.calib_out,
    }
    _write_report(args.report, summary)
    return 0, summary


def _cmd_stats(args) -> tuple[int, dict]:
    if not args.out:
        raise PruneKitError("stats requires --out for the statistics container")
    calib = load_container(args.calib)
    out = TensorContainer()
    detail = {}
    for name in calib.names():
        if not name.endswith(".calib"):
            continue
        layer = name[: -len(".calib")]
        rows = calib.get(name)
        acc = stats_init(rows.shape[1])
        for start in range(0, rows.shape[0], _STATS_CHUNK):
            acc = stats_update(acc, rows[start : start + _STATS_CHUNK])
        stats_to_container(out, layer, acc)
        detail[layer] = {"rows": acc.n, "features": acc.m}
    save_container(out, args.out)
    summary = {"command": "stats", "calib": args.calib, "out": args.out,
               "layers": detail}
    _write_report(args.report, summary)
    return 0, summary


def _cmd_prune(args) -> tuple[int, dict]:
    if not args.out:
        raise PruneKitError("prune requires --out for the pruned container")
    damping = args.damping if args.damping in (None, "auto") else float(args.damping)
    criterion = Criterion(args.criterion, damping=damping)
    model = load_container(args.model)
    calib = load_container(args.calib)
    pruned, report = prune_container(
        model, calib, criterion, args.sparsity,
        bias_update_enabled=_bias_flag(args.bias_update),
        holdout_fraction=args.holdout,
        threads=resolve_threads(args.threads))
    save_container(pruned, args.out)
    for rec in report.layers:
        print(f"{rec.layer}: criterion={rec.criterion} sparsity={rec.achieved_sparsity:.4f} "
              f"mse={rec.reconstruction_mse:.6e} bias_delta={rec.bias_delta_norm:.3e}")
    _write_report(args.report, report.to_dict())
    summary = {
        "command": "prune",
        "model": args.model,
        "out": args.out,
        "criterion": args.criterion,
        "sparsity": str(args.sparsity),
        "layers": len(report.layers),
        "mean_mse": (float(np.mean([r.reconstruction_mse for r in report.layers]))
                     if report.layers else 0.0),
        "report": args.report,
    }
    return 0, summary


def _cmd_verify(args) -> tuple[int, dict]:
    result = check_criterion_optimality(
        args.criterion, args.trials, args.seed, data=args.data,
        threads=resolve_threads(args.threads))
    payload = result.to_dict()
    _write_report(args.report, payload)
    summary = {"command": "verify", **payload}
    return (0 if result.passed else 1), summary


def _cmd_bench(args) -> tuple[int, dict]:
    tags = [t.strip() for t in args.criteria.split(",") if t.strip()]
    config = ToyMlpConfig(dims=args.dims, norm=args.norm, samples=args.samples)
    table = run_comparison(tags, args.sparsity, args.seeds, config,
                           base_seed=args.seed,
                           holdout_fraction=args.holdout,
                           bias_update_enabled=_bias_flag(args.bias_update),
                           threads=resolve_threads(args.threads))
    print(table.to_text())
    _write_report(args.out, table.to_dict())
    summary = {
        "command": "bench",
        "criteria": table.criteria,
        "sparsity": table.sparsity,
        "norm": table.norm,
        "seeds": len(table.seeds),
        "mean_layer_mse": {tag: {layer: table.mean_layer_mse(tag, layer)
                                 for layer in table.layers}
                           for tag in table.criteria},
        "mean_e2e_mse": {tag: table.mean_e2e_mse(tag) for tag in table.criteria},
        "out": args.out,
    }
    return 0, summary


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, summary = args.func(args)
    except PruneKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
