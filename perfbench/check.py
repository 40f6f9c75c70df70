"""Check the outputs of benchmark commands against their inputs.

    python3 perfbench/check.py <workload> <seed> <input dir> '<json jobs>'

Each job is ``{"command": i, "dir": d}``: the files command ``i`` of the
workload wrote, kept in ``d``. Prints one JSON line mapping each job to its
errors and exact counts. Recomputes in float64 from the files with the
benchmark's own reader; imports nothing from prunekit.

Prune outputs, per layer: the mask holds exactly floor(p*M) per column (or n
per group of m); surviving weights are bit-equal to the input and pruned ones
are zero; the report's achieved_sparsity matches the mask; on layers whose
criterion takes the bias update, the bias moved by sum over pruned j of
mean_j * W[j, m] up to f32 storage rounding, elsewhere not at all; the report's
reconstruction_mse equals a float64 recomputation over the held-out rows, with
the float64 bias of the previous check, to 1e-9 relative.

Verify outputs: each report's criterion, regime and trial count match the
command; in-regime checks have no mismatch, wanda on offset features
mismatches at least half the trials.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import pkt
from workloads import HOLDOUT, WORKLOADS

MSE_RTOL = 1e-9
OFFSET_MISMATCH_SHARE = 0.5


def _resolved(criterion: str, centered: bool) -> str:
    if criterion == "stade-w":
        return "wanda" if centered else "stade"
    return criterion


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _arg(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_layer(name, model, calib, pruned, report, criterion, sparsity):
    """Errors and pruned-weight count of one layer."""
    errors = []
    entry, w0 = model[name]
    b0 = np.asarray(model[f"{name}.bias"][1], dtype=np.float64)
    w1 = pruned[name][1]
    b1 = np.asarray(pruned[f"{name}.bias"][1], dtype=np.float64)
    mask = np.asarray(pruned[f"{name}.mask"][1])
    if pruned[name][0].get("centered") != entry["centered"]:
        errors.append("centered flag changed")
    if mask.shape != w0.shape or w1.shape != w0.shape or b1.shape != b0.shape:
        return [f"output shapes differ from the input: mask {mask.shape}, weights "
                f"{w1.shape}, bias {b1.shape}"], 0
    if not np.isin(mask, (0, 1)).all():
        errors.append("mask holds values other than 0 and 1")
    mask = mask.astype(bool)
    m_in = w0.shape[0]
    if ":" in sparsity:
        n, group = (int(t) for t in sparsity.split(":"))
        counts = mask.reshape(m_in // group, group, -1).sum(axis=1)
    else:
        n = int(math.floor(float(sparsity) * m_in))
        counts = mask.sum(axis=0)
    if not (counts == n).all():
        errors.append(f"mask prunes {counts.min()}..{counts.max()} per group, expected {n}")
    kept = ~mask
    if not np.array_equal(w1[kept].view(np.uint32), w0[kept].view(np.uint32)):
        errors.append("surviving weights are not bit-equal to the input")
    if not (w1[mask] == 0).all():
        errors.append("pruned weights are not zero")

    resolved = _resolved(criterion, entry["centered"])
    if report.get("criterion") != resolved:
        errors.append(f"report criterion {report.get('criterion')!r}, expected {resolved!r}")
    pruned_count = int(mask.sum())
    if report.get("achieved_sparsity") != pruned_count / mask.size:
        errors.append(f"report achieved_sparsity {report.get('achieved_sparsity')} "
                      f"!= mask share {pruned_count / mask.size}")

    rows = calib[f"{name}.calib"][1]
    n_train = rows.shape[0] - int(math.floor(HOLDOUT * rows.shape[0]))
    w0_64 = np.asarray(w0, dtype=np.float64)
    expected = b0
    if resolved == "stade":  # the criterion whose default includes the bias update
        mean = np.asarray(rows[:n_train], dtype=np.float64).sum(axis=0) / n_train
        shift = (mask * (mean[:, None] * w0_64)).sum(axis=0)
        expected = np.where(shift != 0.0, b0 + shift, b0)
    ulp = np.spacing(np.abs(expected).astype(np.float32)).astype(np.float64)
    if not (np.abs(b1 - expected) <= ulp).all():
        errors.append("bias differs from the closed-form update beyond f32 rounding")

    holdout = np.asarray(rows[n_train:], dtype=np.float64)
    y0 = holdout @ w0_64 + b0
    y1 = holdout @ np.asarray(w1, dtype=np.float64) + expected
    mse = float(np.mean((y0 - y1) ** 2))
    if _rel(mse, report.get("reconstruction_mse", math.nan)) > MSE_RTOL:
        errors.append(f"report reconstruction_mse {report.get('reconstruction_mse')!r} "
                      f"!= recomputed {mse!r}")
    return errors, pruned_count


def check_prune(argv, inputs, out_dir):
    model = pkt.read(f"{inputs}/model.pkt")
    calib = pkt.read(f"{inputs}/calib.pkt")
    pruned = pkt.read(f"{out_dir}/pruned.pkt")
    with open(f"{out_dir}/report.json", encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    names = [name for name, (entry, _) in model.items() if "centered" in entry]
    if [rec.get("layer") for rec in layers] != names:
        return [f"report layers {[r.get('layer') for r in layers]} != model layers {names}"], {}
    errors, pruned_total = [], 0
    for name, rec in zip(names, layers):
        layer_errors, count = check_layer(name, model, calib, pruned, rec,
                                          _arg(argv, "--criterion"), _arg(argv, "--sparsity"))
        errors += [f"{name}: {e}" for e in layer_errors]
        pruned_total += count
    return errors, {"masks.pruned": pruned_total}


def check_verify(argv, expect_exit, out_dir, report_name):
    with open(f"{out_dir}/{report_name}", encoding="utf-8") as fh:
        report = json.load(fh)
    criterion, data = _arg(argv, "--criterion"), _arg(argv, "--data")
    trials = int(_arg(argv, "--trials"))
    errors = []
    if (report.get("criterion"), report.get("data"), report.get("trials")) != (
            criterion, data, trials):
        errors.append(f"report is for {report.get('criterion')}/{report.get('data')} "
                      f"x{report.get('trials')}, expected {criterion}/{data} x{trials}")
    mismatches = report.get("mismatches")
    if not isinstance(mismatches, int) or report.get("matches", -1) + mismatches != trials:
        errors.append(f"report counts {report.get('matches')} + {mismatches} != {trials}")
    elif expect_exit == 0 and mismatches != 0:
        errors.append(f"{criterion}/{data}: {mismatches} mismatches in its own regime")
    elif expect_exit != 0 and mismatches < OFFSET_MISMATCH_SHARE * trials:
        errors.append(f"{criterion}/{data}: {mismatches}/{trials} mismatches, expected "
                      f">= {OFFSET_MISMATCH_SHARE:.0%}")
    return errors, {"oracle.mismatches": mismatches if isinstance(mismatches, int) else -1}


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    seed, inputs, jobs = int(sys.argv[2]), sys.argv[3], json.loads(sys.argv[4])
    commands = workload.commands(inputs, seed)
    results = []
    for job in jobs:
        command = commands[job["command"]]
        try:
            if workload.layers is not None:
                errors, counts = check_prune(command.argv, inputs, job["dir"])
            else:
                errors, counts = check_verify(command.argv, command.expect_exit, job["dir"],
                                              command.outputs[0])
        except (OSError, KeyError, ValueError, TypeError) as exc:
            errors, counts = [f"unreadable output: {exc!r}"], {}
        results.append({"errors": errors, "counts": counts})
    print(json.dumps(results))


if __name__ == "__main__":
    main()
