"""Exhaustive single-prune enumeration and criterion optimality checks.

The enumerator tries every candidate weight of one output column, evaluates
the empirical squared reconstruction error directly on the calibration rows
(with the bias either re-fit or frozen), all candidates in one array pass,
and returns the global minimizer.
It is the ground truth the ranking criteria are checked against: on any
sample, the stade argmin must match enumeration with bias refitting, wanda
must match it on exactly mean-centered data, and stade-star must match it
with the bias frozen. ``random_instance`` draws every check instance, in
each of the ``DATA_REGIMES``. The enumerator's inputs obey the engine's
input rule (``stats._matrix``), so a NaN or infinity raises
``NonFiniteInput``, as does a finite instance whose objective overflows
float64; an instance without features raises ``InvalidDimension``. It
always returns a minimizer or raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CHECKABLE_TAGS, CRITERION_RULES, compute_scores
from .errors import EmptyStats, InstanceTooLarge, InvalidDimension, NonFiniteInput
from .parallel import parallel_map
from .stats import _matrix, stats_init, stats_update

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

    # Row j of ``cols`` is feature j, so candidate j's objective is a mean
    # along one contiguous row: the same pairwise summation, and so the same
    # bits, as the mean of candidate j's 1-D error vector on its own.
    cols = np.ascontiguousarray(calib.T)
    with np.errstate(over="ignore", invalid="ignore"):
        dense = calib @ w_col + bias
        b = bias + cols.mean(axis=1) * w_col if allow_bias else np.full(m, bias)
        pruned = dense - cols * w_col[:, None] - bias + b[:, None]
        objective = np.mean((dense - pruned) ** 2, axis=1)
    bad = np.flatnonzero(~np.isfinite(objective))
    if bad.size:
        raise NonFiniteInput(f"objective of feature {bad[0]} is not finite")
    j = int(np.argmin(objective))  # the first minimum: ties go to the lowest index
    return j, float(b[j]), float(objective[j])


def random_instance(rng: np.random.Generator, data: str = "uncentered"):
    """Draw one (calib, w_col, bias) check instance in the ``data`` regime.

    "uncentered" features are mean-plus-scaled-noise with means in (-5, 5)
    and scales in (0.1, 2), so both mean-dominated and variance-dominated
    features occur. "offset" forces one feature near-constant (scale <=
    0.05) with a large offset (|mean| >= 3), the regime where a raw-norm
    ranking misranks. "centered" is the uncentered draw minus its exact
    column means. Any other regime raises ``ValueError``.
    """
    if data not in DATA_REGIMES:
        raise ValueError(f"unknown data regime {data!r}")
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
    seen, which must vanish on centered data.
    """
    if tag not in CHECKABLE_TAGS:
        raise ValueError(f"no optimality check for criterion {tag!r}; "
                         f"expected one of {sorted(CHECKABLE_TAGS)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    default_data, allow_bias = CRITERION_RULES[tag].optimal_in
    if data == "auto":
        data = default_data

    children = np.random.SeedSequence(seed).spawn(trials)

    def instance(idx: int):
        return random_instance(np.random.default_rng(children[idx]), data)

    def run_trial(idx: int):
        calib, w_col, bias = instance(idx)
        stats = stats_update(stats_init(calib.shape[1]), calib)
        scores = compute_scores(tag, w_col[:, None], stats=stats)
        crit_j = int(np.argmin(scores[:, 0]))
        bf_j, bf_b, bf_obj = brute_force_single_prune(w_col, bias, calib, allow_bias)
        mismatch = None if crit_j == bf_j else (crit_j, bf_j, bf_obj)
        return abs(bf_b - bias), mismatch

    outcomes = parallel_map(run_trial, range(trials), threads)
    mismatched = [idx for idx, (_, mismatch) in enumerate(outcomes) if mismatch]
    first = None
    if mismatched:
        # Only the first counterexample is reported, so only it is built;
        # its instance is drawn again from the trial's own seed.
        idx = mismatched[0]
        crit_j, bf_j, bf_obj = outcomes[idx][1]
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
    return CheckResult(
        criterion=tag,
        data=data,
        allow_bias=allow_bias,
        trials=trials,
        matches=trials - len(mismatched),
        mismatches=len(mismatched),
        max_bias_shift=float(max(shift for shift, _ in outcomes)),
        first_counterexample=first,
    )
