#!/usr/bin/env python3
"""prunekit benchmark: times ``prunekit.cli.main`` on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload prune-unstructured --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads are in workloads.py, metrics and what each should move in
metrics.py. A run writes the workload's inputs from ``--seed`` (gen.py), warms
up one interpreter, then repeats for ``--seconds`` (at least three times):
each repetition is a fresh interpreter (child.py) that times
``import prunekit.cli`` and then the workload's ``cli.main`` calls. Every
call's outputs are hashed; each distinct output is checked by check.py. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``, where traced repetitions (tracing.py)
alternate with untraced ones so that the trace's own cost can be reported.
Spans of the last traced repetition are written to
``.perfbench-run/traces/``.

Children get ``OPENBLAS_NUM_THREADS=1``; the prune workloads pass
``--threads 2``. This process imports only the standard library and stays
small: Linux carries the parent's resident-set high-water mark into a
spawned child's ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import COMPUTED, COUNTS, END_TO_END, PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
BLAS_THREADS = "1"
MIN_REPS = 3          # per kind of repetition (untraced, traced)
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not run: nothing is reported."""


def manifest_errors() -> list[str]:
    """Differences between BENCHMARK.json and the definitions here."""
    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot read BENCHMARK.json: {exc}"]
    expected = {
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound, _) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better, _) in PER_LAYER.items()],
    }
    return [f"BENCHMARK.json {key} differ from perfbench definitions"
            for key, value in expected.items() if manifest.get(key) != value]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PRUNEKIT_THREADS", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    return env


class Runner:
    """One workload at one seed: inputs, repetitions, checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = child_env()
        self.work = RUN_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
        self.commands = self.workload.commands(str(self.work), seed)
        self.spans_path = RUN_DIR / "traces" / f"{name}-seed{seed}.json"
        self.inputs = ""

    def python(self, script: str, *args: str) -> str:
        """Run a perfbench script in a fresh interpreter; return its last stdout line."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run([sys.executable, str(BENCH / script), *args], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{script} did not finish in time") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return lines[-1]

    def repetition(self, traced: bool, keep_spans: bool) -> dict:
        for command in self.commands:
            for output in command.outputs:
                (self.work / output).unlink(missing_ok=True)
        spec = {"src": str(SRC), "commands": [list(c.argv) for c in self.commands],
                "threads": self.workload.threads, "trace": traced,
                "spans_path": str(self.spans_path) if keep_spans else None}
        rep = json.loads(self.python("child.py", json.dumps(spec)))
        rep["traced"] = traced
        return rep

    def run(self) -> tuple[dict, list[str]]:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.spans_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            if self.workload.layers is not None:
                self.inputs = self.python("gen.py", self.workload.name, str(self.seed),
                                          str(self.work))
            self.python("child.py", json.dumps({"src": str(SRC), "commands": [],
                                                 "threads": 1, "trace": False}))
            kinds = (False, True) if self.trace else (False,)
            reps, outputs = [], {}
            stop = time.monotonic() + self.seconds
            while len(reps) < MIN_REPS * len(kinds) or time.monotonic() < stop:
                traced = kinds[len(reps) % len(kinds)]
                reps.append(self.repetition(traced, keep_spans=traced))
                self.collect_outputs(reps[-1], outputs)
            verdicts = self.check(outputs)
            return self.report(reps, outputs, verdicts)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def collect_outputs(self, rep: dict, outputs: dict) -> None:
        """Mark each call ok or not, and keep each distinct output for checking."""
        rep["keys"] = []
        for i, (command, call) in enumerate(zip(self.commands, rep["calls"])):
            summary = call["summary"]
            ok = (call["exit"] == command.expect_exit and summary is not None
                  and summary.get("command") == command.argv[0])
            paths = [self.work / name for name in command.outputs]
            if ok and all(p.is_file() for p in paths):
                key = (i, tuple(_sha256(p) for p in paths))
                if key not in outputs:
                    keep = self.work / "keep" / str(len(outputs))
                    keep.mkdir(parents=True)
                    for p in paths:
                        os.replace(p, keep / p.name)
                    outputs[key] = str(keep)
            else:
                key = None
                print(f"call {i} exited {call['exit']}: {call['stderr'].strip()}",
                      file=sys.stderr)
            rep["keys"].append(key)

    def check(self, outputs: dict) -> dict:
        if not outputs:
            return {}
        jobs = [{"command": key[0], "dir": keep} for key, keep in outputs.items()]
        results = json.loads(self.python("check.py", self.workload.name, str(self.seed),
                                         str(self.work), json.dumps(jobs)))
        return dict(zip(outputs, results))

    def report(self, reps: list[dict], outputs: dict, verdicts: dict) -> tuple[dict, list[str]]:
        errors, lines = [], []
        attempted = failed = 0
        for rep in reps:
            for key in rep["keys"]:
                attempted += 1
                if key is None or verdicts[key]["errors"]:
                    failed += 1
        for key, verdict in verdicts.items():
            errors += [f"command {key[0]}: {e}" for e in verdict["errors"]]
        for i, command in enumerate(self.commands):
            distinct = [key for key in outputs if key[0] == i]
            if len(distinct) > 1:
                errors.append(f"command {i} wrote {len(distinct)} different outputs "
                              f"across repetitions")
            for key in distinct:
                for name, digest in zip(command.outputs, key[1]):
                    lines.append(f"sha256 {name} {digest}")

        facts = {**reps[0]["facts"], "threads": self.workload.threads,
                 "workload": self.workload.name, "seed": self.seed}
        lines.insert(0, "machine " + json.dumps(facts, sort_keys=True))
        if self.inputs:
            lines.insert(1, f"input bytes {self.inputs}")
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        if self.trace:
            metrics = self.layer_metrics(plain, traced, verdicts, errors)
            lines.append(f"spans of the last traced repetition: {self.spans_path}")
        else:
            metrics = self.end_to_end(plain, attempted, failed)
            walls = sorted(r["wall_s"] for r in plain)
            q1, _, q3 = statistics.quantiles(walls, n=4)
            lines.append(f"wall_s over {len(walls)} repetitions: min {walls[0]:.4f} "
                         f"q1 {q1:.4f} q3 {q3:.4f} max {walls[-1]:.4f}")
        lines.append(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} "
                     f"commands), repetitions {len(plain)} untraced, {len(traced)} traced")
        units = {**{k: v[0] for k, v in END_TO_END.items()},
                 **{k: v[0] for k, v in PER_LAYER.items()}}
        for name, value in metrics.items():
            note = " (computed)" if name in COMPUTED else ""
            lines.append(f"{name:28s} {value:>16.6g} {units[name]}{note}")
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        result = {"correct": not errors and failed == 0, "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
        return result, lines

    def end_to_end(self, reps: list[dict], attempted: int, failed: int) -> dict:
        wall = statistics.median(r["wall_s"] for r in reps)
        return {
            "wall_s": wall,
            "work_per_s": self.workload.units / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "ok_frac": 1.0 - failed / attempted,
        }

    def layer_metrics(self, plain: list[dict], traced: list[dict], verdicts: dict,
                      errors: list[str]) -> dict:
        for rep in traced:
            errors += [f"trace: {e}" for e in rep["trace_errors"]]
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                metrics[name] = (statistics.median(r["wall_s"] for r in traced)
                                 - statistics.median(r["wall_s"] for r in plain))
                continue
            values = [r["layer"][name] for r in traced]
            if name in COUNTS and len(set(values)) > 1:
                errors.append(f"count {name} differs across repetitions: {values}")
            metrics[name] = statistics.median(values)
        checked = {}
        for key, verdict in verdicts.items():
            for name, count in verdict["counts"].items():
                checked[name] = checked.get(name, 0) + count
        for name, count in checked.items():
            if metrics[name] != count:
                errors.append(f"traced {name} = {metrics[name]}, outputs show {count}")
        layers = self.workload.layers
        if layers is not None and metrics["stats.rows"] != layers.count * layers.train_rows:
            errors.append(f"traced stats.rows = {metrics['stats.rows']}, expected "
                          f"{layers.count * layers.train_rows}")
        return metrics


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prunekit" / "cli.py").is_file():
        print(f"error: no prunekit sources at {SRC}", file=sys.stderr)
        return 2
    problems = manifest_errors()
    if problems:
        print("\n".join(f"error: {p}" for p in problems), file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = Runner(name, args.seed, args.seconds, bool(args.trace)).run()
            print(f"== {name}")
            print("\n".join(lines))
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
