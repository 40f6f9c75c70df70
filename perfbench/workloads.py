"""The benchmark's workloads: which inputs to generate and which CLI calls to time.

Standard library only, because the orchestrating process imports it and must
stay small (see run.py). The commands name files in a per-run work directory;
``gen.py`` writes the inputs there before anything is timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HOLDOUT = 0.2  # passed to every prune call; check.py splits the rows the same way


@dataclass(frozen=True)
class Layers:
    """Synthetic square layers (width x width f32 weights plus a bias) and their rows."""

    width: int
    rows: int
    centered: tuple[bool, ...]

    @property
    def count(self) -> int:
        return len(self.centered)

    @property
    def train_rows(self) -> int:
        return self.rows - int(math.floor(HOLDOUT * self.rows))


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect_exit: int
    outputs: tuple[str, ...]  # files in the work directory the call writes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: Layers | None  # None: the command draws its own instances from --seed
    threads: int
    units: int  # work units per repetition: weights scored, or oracle trials
    prune_args: tuple[str, ...] = ()  # criterion, sparsity and its options
    verify_regimes: tuple[tuple[str, str, int], ...] = ()  # (criterion, data, exit)
    trials: int = 0

    def commands(self, work: str, seed: int) -> list[Command]:
        """The CLI calls of one repetition, with paths inside ``work``."""
        if self.layers is not None:
            argv = ("prune", "--model", f"{work}/model.pkt", "--calib", f"{work}/calib.pkt",
                    *self.prune_args,
                    "--holdout", str(HOLDOUT), "--threads", str(self.threads),
                    "--out", f"{work}/pruned.pkt", "--report", f"{work}/report.json")
            return [Command(argv, 0, ("pruned.pkt", "report.json"))]
        commands = []
        for i, (criterion, data, code) in enumerate(self.verify_regimes):
            report = f"verify-{criterion}-{data}.json"
            argv = ("verify", "--criterion", criterion, "--data", data,
                    "--trials", str(self.trials), "--seed", str(4 * seed + i),
                    "--threads", str(self.threads), "--report", f"{work}/{report}")
            commands.append(Command(argv, code, (report,)))
        return commands


def _prune(name: str, why: str, layers: Layers, prune_args: tuple[str, ...]) -> Workload:
    return Workload(name=name, why=why, layers=layers, threads=2,
                    units=layers.count * layers.width * layers.width,
                    prune_args=prune_args)


_TRIALS = 2500
_VERIFY_REGIMES = (
    ("stade", "uncentered", 0),
    ("wanda", "centered", 0),
    ("stade-star", "uncentered", 0),
    # The documented counterexample regime: verify exits 1 when it finds one.
    ("wanda", "offset", 1),
)

WORKLOADS = {
    w.name: w for w in (
        _prune("prune-unstructured",
               "full stable argsort in build_mask dominates; stade-w runs wanda and "
               "stade+bias update on alternate layers; load/save and eval are the rest",
               Layers(width=2048, rows=2048, centered=(False, True, False, True)),
               ("--criterion", "stade-w", "--sparsity", "0.5", "--bias-update", "auto")),
        _prune("prune-sparsegpt-2of4",
               "Gram accumulation and Cholesky+inverse dominate; a 134 MB calibration "
               "file loads; cheap grouped 2:4 masks bypass the unstructured argsort",
               Layers(width=2048, rows=8192, centered=(False, False)),
               ("--criterion", "sparsegpt-score", "--sparsity", "2:4", "--damping", "auto")),
        Workload(name="verify-oracle",
                 why="10,000 tiny oracle instances: per-call cost of stats, criteria and "
                     "oracle dominates; single-threaded baseline; no large arrays",
                 layers=None, threads=1, units=len(_VERIFY_REGIMES) * _TRIALS,
                 verify_regimes=_VERIFY_REGIMES, trials=_TRIALS),
    )
}
