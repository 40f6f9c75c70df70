"""Exhaustive single-prune enumeration and criterion optimality checks.

The enumerator tries every candidate weight of one output column, all in
one array pass, and returns the minimizer of the empirical squared
reconstruction error on the calibration rows, with the bias re-fit or
frozen. It is the ground truth each criterion's argmin is checked against,
on instances ``random_instance`` draws in the regime the criterion's
``CRITERION_RULES`` row names.

``check_criterion_optimality`` draws its trials ``_WINDOW`` at a time.
Trial i draws from ``SeedSequence(seed, spawn_key=(i,))``, the i-th child
``SeedSequence(seed).spawn`` would make. Within a window, the instances of
one row count n sit side by side as the columns of one n x (sum of widths)
stack, and one ``stats_update``, one ``compute_scores`` and one
``_enumerate`` pass check them all. The bits are those of checking each
instance alone, because every step works per feature:

- the statistics of at most ``stats._BLOCK_ROWS`` rows sum each column row
  by row, whatever the stack's width (an instance has at least two
  features, so it is never the one-column batch numpy sums pairwise);
- the score is elementwise;
- every objective row keeps its length n, so its mean adds in the same
  pairwise order;
- each instance's argmins read its own slice, ties going to the lowest
  index.

Each dense output is ``calib @ w_col + bias`` on the instance's own
contiguous rows, never on a strided slice of the stack, whose product the
BLAS may sum in another order. A window is reduced to its mismatch count,
largest bias shift and first mismatch before the next one runs, so the
working set does not grow with the trial count. A stack that overflows
raises ``NonFiniteInput`` at its first failing step, whichever trial that is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CHECKABLE_TAGS, CRITERION_RULES, compute_scores
from .errors import (
    EmptyStats,
    InstanceTooLarge,
    InvalidArgument,
    InvalidDimension,
    NonFiniteInput,
)
from .parallel import parallel_map
from .stats import _is_count, _matrix, stats_init, stats_update

MAX_FEATURES = 64
MAX_ROWS = 4096

DATA_REGIMES = ("uncentered", "centered", "offset")


def brute_force_single_prune(
    w_col: np.ndarray,
    bias: float,
    calib: np.ndarray,
    allow_bias: bool,
) -> tuple[int, float, float]:
    """Enumerate every single-weight prune of one output column.

    Returns ``(best_j, best_bias, best_objective)`` where the objective is
    the empirical mean squared output difference over the calibration rows.
    With ``allow_bias`` the bias is re-fit per candidate to its closed-form
    least-squares minimizer ``bias + mean(x_j) * w_j``; otherwise it stays
    fixed. Ties resolve to the lowest input index. A candidate whose
    objective is not finite raises ``NonFiniteInput``: the enumeration must
    weigh every candidate to be ground truth.
    """
    calib = _matrix(calib, "calib")
    n, m = calib.shape
    # The 1-D column and the scalar bias are checked as one-row matrices.
    w_col = _matrix(np.asarray(w_col)[None], "w_col as a row", m)[0]
    bias = float(_matrix([[bias]], "bias")[0, 0])
    if m > MAX_FEATURES or n > MAX_ROWS:
        raise InstanceTooLarge(f"instance {n}x{m} exceeds enumeration bounds "
                               f"{MAX_ROWS}x{MAX_FEATURES}")
    if m == 0:
        raise InvalidDimension("enumeration needs at least one feature")
    if n == 0:
        raise EmptyStats("enumeration needs at least one calibration row")

    return _enumerate(calib, [(calib, w_col, bias)], allow_bias)[0]


def _enumerate(stack, instances, allow_bias):
    """Each of ``instances``' ``(best_j, best_bias, best_objective)``, as
    ``brute_force_single_prune`` returns it. ``instances`` are (calib, w_col,
    bias) of one row count and ``stack`` their calibrations side by side.
    Each objective is a mean along one contiguous row: the same pairwise
    summation, and so the same bits, as the mean of that candidate's 1-D
    error vector on its own. A non-finite one raises ``NonFiniteInput``.
    """
    _, ws, biases = zip(*instances)
    sizes = [w_col.shape[0] for w_col in ws]
    cols, w, bias = np.ascontiguousarray(stack.T), np.concatenate(ws), np.repeat(biases, sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        dense = np.repeat([calib @ w_col + b for calib, w_col, b in instances], sizes, axis=0)
        refit = bias + cols.mean(axis=1) * w if allow_bias else bias
        pruned = dense - cols * w[:, None] - bias[:, None] + refit[:, None]
        objective = np.mean((dense - pruned) ** 2, axis=1)
    bad = np.flatnonzero(~np.isfinite(objective))
    if bad.size:  # an index into the stack: the instance's feature when it holds one
        raise NonFiniteInput(f"objective of feature {bad[0]} is not finite")
    best = []
    for start, m in zip(np.cumsum([0, *sizes[:-1]]).tolist(), sizes):
        j = int(objective[start : start + m].argmin())  # ties go to the lowest index
        best.append((j, float(refit[start + j]), float(objective[start + j])))
    return best


def random_instance(rng: np.random.Generator, data: str = "uncentered"):
    """Draw one (calib, w_col, bias) check instance in the ``data`` regime.

    "uncentered" features are mean-plus-scaled-noise with means in (-5, 5)
    and scales in (0.1, 2), so both mean-dominated and variance-dominated
    features occur. "offset" forces one feature near-constant (scale <=
    0.05) with a large offset (|mean| >= 3), the regime where a raw-norm
    ranking misranks. "centered" is the uncentered draw minus its exact
    column means. Any other regime raises ``InvalidArgument``.
    """
    if data not in DATA_REGIMES:
        raise InvalidArgument(f"unknown data regime {data!r}")
    n = int(rng.integers(8, 65))
    m = int(rng.integers(2, 17))
    mu = rng.uniform(-5.0, 5.0, size=m)
    sigma = rng.uniform(0.1, 2.0, size=m)
    if data == "offset":
        k = int(rng.integers(0, m))
        sigma[k] = rng.uniform(0.01, 0.05)
        mu[k] = float(rng.choice([-1.0, 1.0])) * rng.uniform(3.0, 5.0)
    calib = mu + sigma * rng.standard_normal((n, m))
    w_col = rng.uniform(-1.0, 1.0, size=m)
    bias = float(rng.uniform(-1.0, 1.0))
    if data == "centered":
        calib -= calib.mean(axis=0)
    return calib, w_col, bias


@dataclass
class CheckResult:
    criterion: str
    data: str
    allow_bias: bool
    trials: int
    matches: int
    mismatches: int
    max_bias_shift: float
    first_counterexample: dict | None

    @property
    def passed(self) -> bool:
        return self.mismatches == 0


_WINDOW = 256  # trials drawn, checked and reduced together


def _check_window(tag, allow_bias, trials):
    """Check ``trials``, (index, instance) pairs, in one stack per row count.

    Returns the mismatch count, the largest bias shift and the first mismatch
    as ``(index, (criterion choice, enumeration choice, objective))``, or None.
    """
    stacks = {}
    for idx, instance in trials:
        stacks.setdefault(instance[0].shape[0], []).append((idx, instance))
    mismatched, shift = [], 0.0
    for stacked in stacks.values():
        indices, instances = zip(*stacked)
        calibs, ws, biases = zip(*instances)
        stack, w = np.hstack(calibs), np.concatenate(ws)
        stats = stats_update(stats_init(w.shape[0]), stack)
        scores = compute_scores(tag, w[:, None], stats=stats)[:, 0]
        start = 0
        for idx, w_col, bias, (bf_j, bf_b, bf_obj) in zip(
                indices, ws, biases, _enumerate(stack, instances, allow_bias)):
            crit_j = int(scores[start : start + w_col.shape[0]].argmin())  # ties: lowest index
            start += w_col.shape[0]
            shift = max(shift, abs(bf_b - bias))
            if crit_j != bf_j:
                mismatched.append((idx, (crit_j, bf_j, bf_obj)))
    return len(mismatched), shift, min(mismatched) if mismatched else None


def check_criterion_optimality(
    tag: str,
    trials: int,
    seed: int,
    data: str = "auto",
    threads: int = 1,
) -> CheckResult:
    """Compare a criterion's argmin against enumeration over random instances.

    ``data`` is the regime ``random_instance`` draws in, or "auto" for the
    one the criterion is claimed optimal for in ``CRITERION_RULES``.
    ``max_bias_shift`` records the largest |refit bias - original bias|
    seen, which must vanish on centered data. ``trials`` must be an integer
    >= 1 and ``seed`` one >= 0; ``threads`` workers check the windows of trials.
    """
    if tag not in CHECKABLE_TAGS:
        raise InvalidArgument(f"no optimality check for criterion {tag!r}; "
                         f"expected one of {sorted(CHECKABLE_TAGS)}")
    if not _is_count(trials, 1):
        raise InvalidArgument(f"trials must be an integer >= 1, got {trials!r}")
    if not _is_count(seed):
        raise InvalidArgument(f"seed must be an integer >= 0, got {seed!r}")
    trials = int(trials)
    default_data, allow_bias = CRITERION_RULES[tag].optimal_in
    if data == "auto":
        data = default_data

    def instance(idx: int):
        child = np.random.SeedSequence(seed, spawn_key=(idx,))
        return random_instance(np.random.default_rng(child), data)

    def run_window(start: int):
        window = range(start, min(start + _WINDOW, trials))
        return _check_window(tag, allow_bias, [(idx, instance(idx)) for idx in window])

    windows = parallel_map(run_window, range(0, trials, _WINDOW), threads)
    firsts = [first for _, _, first in windows if first]
    first = None
    if firsts:
        # Only the first counterexample is reported, so only it is built;
        # its instance is drawn again from the trial's own seed.
        idx, (crit_j, bf_j, bf_obj) = firsts[0]
        calib, w_col, bias = instance(idx)
        first = {
            "trial": idx,
            "rows": int(calib.shape[0]),
            "features": int(calib.shape[1]),
            "criterion_choice": crit_j,
            "enumeration_choice": bf_j,
            "enumeration_objective": bf_obj,
            "weights": w_col.tolist(),
            "bias": bias,
            "feature_means": calib.mean(axis=0).tolist(),
            "feature_stds": calib.std(axis=0, ddof=1).tolist(),
        }
    mismatches = sum(count for count, _, _ in windows)
    return CheckResult(
        criterion=tag,
        data=data,
        allow_bias=allow_bias,
        trials=trials,
        matches=trials - mismatches,
        mismatches=mismatches,
        max_bias_shift=float(max(shift for _, shift, _ in windows)),
        first_counterexample=first,
    )
