"""Command-line entry point: ``gen``, ``prune`` and ``verify``.

README's "CLI" section is the contract: the flags, the JSON summary line
and the exit codes. ``main``, the one writer of stdout, catches a command's
``PruneKitError`` and nothing else.
``prune`` opens both input files, reads each layer's tensors as that layer
is pruned, and writes each pruned layer into a temporary file beside
``--out``, which replaces ``--out`` only once every tensor is written, so
``--out`` may name either input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .container import _staged, _TempFile, open_container, save_container
# perfbench/tracing.py wraps cli.load_container, so the name stays here.
from .container import load_container  # noqa: F401
from .criteria import CHECKABLE_TAGS, CRITERION_TAGS, Criterion
from .errors import InvalidRatio, PruneKitError
from .harness import NORM_KINDS, ToyMlpConfig, gen_toy_mlp
from .masks import SparsitySpec
from .oracle import DATA_REGIMES, check_criterion_optimality
from .pruner import HOLDOUT_FRACTION, prune_container


def _dims(text: str) -> tuple[int, ...]:
    """A --dims value: comma-separated integers; ToyMlpConfig checks count and signs."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}; expected d_in,d_hidden,d_out")


def _sparsity(text: str) -> SparsitySpec:
    try:
        return SparsitySpec.parse(text)
    except InvalidRatio as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _threads(text: str) -> int:
    """A --threads value: a positive count, or "auto" for the CPU count."""
    if text == "auto":
        return os.cpu_count() or 1
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"bad thread count {text!r}; "
                                         f"expected a positive integer or 'auto'")
    return int(text)


def _damping(text: str) -> float | str:
    """A --damping value: "auto" or a float; Criterion checks its range."""
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad damping {text!r}; "
                                         f"expected a float or 'auto'") from None


_COMMON = {
    "seed": dict(type=int, default=0, help="base RNG seed"),
    "out": dict(required=True, help="primary output path"),
    "report": dict(help="write the detailed JSON report here"),
    "threads": dict(type=_threads, default=1, help="worker cap: a count or 'auto'"),
}


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_COMMON[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prunekit",
                                     description="post-training weight pruning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a toy model and calibration containers")
    _add_common(p, "seed", "out")
    p.add_argument("--dims", type=_dims, default=(16, 32, 8),
                   help="d_in,d_hidden,d_out (default 16,32,8)")
    p.add_argument("--norm", choices=NORM_KINDS, default="none")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--calib-out", required=True, help="calibration container path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("prune", help="prune every layer of a model container")
    _add_common(p, "out", "report", "threads")
    p.add_argument("--model", required=True, help="model container path")
    p.add_argument("--calib", required=True, help="calibration container path")
    p.add_argument("--criterion", required=True, choices=CRITERION_TAGS)
    p.add_argument("--sparsity", required=True, type=_sparsity,
                   help="ratio like 0.5 or pattern like 2:4")
    p.add_argument("--bias-update", choices=("on", "off", "auto"), default="auto",
                   help="auto = per-criterion default")
    p.add_argument("--damping", type=_damping,
                   help="sparsegpt-score only: a float or 'auto' (the default)")
    p.add_argument("--holdout", type=float, default=HOLDOUT_FRACTION,
                   help="fraction of calibration rows held out for the error report")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("verify", help="check a criterion against brute-force enumeration")
    _add_common(p, "seed", "report", "threads")
    p.add_argument("--criterion", required=True, choices=CHECKABLE_TAGS)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--data", choices=("auto", *DATA_REGIMES), default="auto")
    p.set_defaults(func=_cmd_verify)

    return parser


def _bias_flag(value: str) -> bool | None:
    return {"on": True, "off": False, "auto": None}[value]


def _write_report(file: _TempFile | None, payload: dict) -> None:
    """Write ``payload`` as indented JSON into ``file``, a staged report, if any."""
    if file is not None:
        file.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _cmd_gen(args) -> tuple[int, list[str], dict]:
    with _staged((args.out, "container"), (args.calib_out, "container")) as (out, calib_out):
        model, calib = gen_toy_mlp(args.seed, ToyMlpConfig(args.dims, args.norm, args.samples))
        save_container(model, out)
        save_container(calib, calib_out)
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
    return 0, [], summary


def _cmd_prune(args) -> tuple[int, list[str], dict]:
    criterion = Criterion(args.criterion, damping=args.damping)
    with _staged((args.out, "container"), (args.report, "report")) as (out, report_out):
        with open_container(args.model) as model, open_container(args.calib) as calib:
            _, report = prune_container(
                model, calib, criterion, args.sparsity,
                bias_update_enabled=_bias_flag(args.bias_update),
                holdout_fraction=args.holdout,
                threads=args.threads, out=out)
        _write_report(report_out, asdict(report))
    lines = [f"{rec.layer}: criterion={rec.criterion} sparsity={rec.achieved_sparsity:.4f} "
             f"mse={rec.reconstruction_mse:.6e} bias_delta={rec.bias_delta_norm:.3e}"
             for rec in report.layers]
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
    return 0, lines, summary


def _cmd_verify(args) -> tuple[int, list[str], dict]:
    with _staged((args.report, "report")) as (report,):
        result = check_criterion_optimality(args.criterion, args.trials, args.seed,
                                            data=args.data)
        payload = asdict(result)
        _write_report(report, payload)
    summary = {"command": "verify", **payload}
    return (0 if result.passed else 1), [], summary


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, lines, summary = args.func(args)
    except PruneKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(*lines, json.dumps(summary, sort_keys=True), sep="\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout after every output was in place. As
        # Python's SIGPIPE note shows, stdout then goes to devnull, so the
        # flush at exit raises nothing, and the command's code stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
