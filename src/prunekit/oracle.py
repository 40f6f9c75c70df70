"""Exhaustive single-prune enumeration and criterion optimality checks.

The enumerator tries every candidate weight of one output column, all in
one array pass, and returns the minimizer of the empirical squared
reconstruction error on the calibration rows, with the bias re-fit or
frozen. It is the ground truth each criterion's argmin is checked against,
on instances ``random_instance`` draws in the regime the criterion's
``CRITERION_RULES`` row names.

``check_criterion_optimality`` checks its trials ``_WINDOW`` at a time.
Trial i draws from ``SeedSequence(seed, spawn_key=(i,))``, the i-th child
``SeedSequence(seed).spawn`` would make. A window's PCG64 states are hashed
in one array pass (the tests pin them to numpy's own) and set, one trial at
a time, on one reused ``Generator``: first to draw each trial's row count
alone, then to draw one row count's trials in full and check them as the
columns of one n x (sum of widths) stack, with one ``stats_update``,
``compute_scores`` and ``_enumerate``, before the next row count. The bits
are those of checking each instance alone, because every step works per
feature:

- the statistics of at most ``stats._BLOCK_ROWS`` rows sum each column row
  by row, whatever the stack's width (an instance has at least two
  features, so it is never the one-column batch numpy sums pairwise);
- the score is elementwise;
- every objective row keeps its length n, so its mean adds in the same
  pairwise order;
- each instance's argmins read its own slice, ties going to the lowest
  index.

Windows run in order on the calling thread; each one's mismatch count,
largest bias shift and lowest mismatching trial join running totals before
the next, so the working set does not grow with the trial count. A stack
that overflows raises ``NonFiniteInput`` at its first failing step,
whichever trial that is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .criteria import CHECKABLE_TAGS, CRITERION_RULES, compute_scores
from .errors import (
    EmptyStats,
    InstanceTooLarge,
    InvalidArgument,
    InvalidDimension,
    NonFiniteInput,
)
from .stats import _is_count, _matrix, stats_init, stats_update

MAX_FEATURES = 64
MAX_ROWS = 4096
MAX_TRIALS = 10**9

DATA_REGIMES = ("uncentered", "centered", "offset")


def brute_force_single_prune(
    w_col: np.ndarray,
    bias: float,
    calib: np.ndarray,
    allow_bias: bool,
) -> tuple[int, float, float]:
    """Enumerate every single-weight prune of one output column.

    Returns ``(best_j, best_bias, best_objective)``. The objective is the
    mean squared output difference over the calibration rows, the mean of
    the removed term ``(x_j * w_j - s_j)**2``: ``s_j = mean(x_j) * w_j``
    with ``allow_bias``, which re-fits the bias to its least-squares
    minimizer ``bias + s_j``, and 0 with the bias fixed. So the bias only
    shifts ``best_bias``. Ties resolve to the lowest input index. A candidate
    whose objective is not finite raises ``NonFiniteInput``: the enumeration
    must weigh every candidate to be ground truth.
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

    best = _enumerate(calib, [w_col], [bias], allow_bias)[0]
    if not np.isfinite(best[1]):
        raise NonFiniteInput(f"refit bias of feature {best[0]} is not finite")
    return best


def _enumerate(stack, ws, biases, allow_bias):
    """Each instance's ``(best_j, best_bias, best_objective)``, as
    ``brute_force_single_prune`` returns it, for instances of one row count
    whose calibrations ``stack`` holds side by side. Each objective is a mean
    along one contiguous row: the same pairwise summation, and so the same
    bits, as the mean of that candidate's 1-D removed term on its own. A
    non-finite one raises ``NonFiniteInput``.
    """
    sizes = [w_col.shape[0] for w_col in ws]
    cols, w = np.ascontiguousarray(stack.T), np.concatenate(ws)
    with np.errstate(over="ignore", invalid="ignore"):
        shift = cols.mean(axis=1) * w if allow_bias else np.zeros_like(w)
        removed = cols * w[:, None]
        removed -= shift[:, None]
        objective = np.mean(removed ** 2, axis=1)
    bad = np.flatnonzero(~np.isfinite(objective))
    if bad.size:  # an index into the stack: the instance's feature when it holds one
        raise NonFiniteInput(f"objective of feature {bad[0]} is not finite")
    best = []
    for start, m, bias in zip(np.cumsum([0, *sizes[:-1]]).tolist(), sizes, biases):
        j = int(objective[start : start + m].argmin())  # ties go to the lowest index
        refit = bias + float(shift[start + j]) if allow_bias else bias
        best.append((j, refit, float(objective[start + j])))
    return best


def _draw_rows(rng: np.random.Generator) -> int:
    """The row count of the instance ``random_instance`` draws from ``rng``:
    its first draw, and the only one a window's first pass makes."""
    return int(rng.integers(8, 65))


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
    n = _draw_rows(rng)
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


_WINDOW = 1024  # trials drawn, checked and reduced together

# numpy's SeedSequence hash constants (pool of 4 uint32 words) and the
# 128-bit multiplier PCG64 steps by.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """``n`` >= 0 as SeedSequence takes an int: uint32 words, lowest first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_states(seed: int, indices):
    """Yield the ``(state, inc)`` of ``PCG64(SeedSequence(seed,
    spawn_key=(i,)))`` for each trial index i.

    SeedSequence's hash (``mix_entropy``, then ``generate_state(4, uint64)``)
    runs over uint32 arrays, one lane per trial, for each run of indices
    whose spawn keys have the same number of words. PCG64's seeding is then
    one 128-bit multiply per trial.
    """
    run = _uint32_words(seed)
    run += [0] * (_POOL - len(run))  # a spawn key pads the run entropy to the pool
    for _, keys in groupby(map(_uint32_words, indices), len):
        entropy = np.array([run + key for key in keys], np.uint32).T
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const  # uint32 lanes wrap, as numpy's hash does
            return value ^ (value >> 16)

        def mix(x, y):
            result = _MIX_MULT_L * x - _MIX_MULT_R * y
            return result ^ (result >> 16)

        pool = [hashmix(word) for word in entropy[:_POOL]]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = mix(pool[dst], hashmix(word))
        words, hash_const = [], _INIT_B
        for dst in range(2 * _POOL):
            value = pool[dst % _POOL] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const
            words.append((value ^ (value >> 16)).astype(np.uint64))
        # Little-endian pairs of words: the seed's two uint64 halves, then inc's.
        halves = [low | high << np.uint64(32) for low, high in zip(words[::2], words[1::2])]
        for s_high, s_low, i_high, i_low in zip(*(half.tolist() for half in halves)):
            inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
            yield ((inc + (s_high << 64 | s_low)) * _PCG64_MULT + inc) & _MASK128, inc


def _trial_rngs(states):
    """For trial i's ``(state, inc)`` from ``_pcg64_states``, a Generator in
    the state ``default_rng(SeedSequence(seed, spawn_key=(i,)))`` starts in.
    It is one Generator, reset for each trial: draw i's values before the next."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in states:
        bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}
        yield rng


def _check_window(tag, data, allow_bias, seed, window):
    """Check ``window``'s trials in the two passes the module docstring states.
    Returns the mismatch count, the largest bias shift and the lowest
    mismatching trial as ``(index, (criterion choice, enumeration choice,
    objective))``, or None."""
    states, groups = list(_pcg64_states(seed, window)), {}
    for idx, state, rng in zip(window, states, _trial_rngs(states)):
        groups.setdefault(_draw_rows(rng), []).append((idx, state))  # in index order
    rngs = _trial_rngs([state for group in groups.values() for _, state in group])
    mismatched, shift = [], 0.0
    for group in groups.values():
        calibs, ws, biases = zip(*(random_instance(next(rngs), data) for _ in group))
        stack, w = np.hstack(calibs), np.concatenate(ws)
        stats = stats_update(stats_init(w.shape[0]), stack)
        scores = compute_scores(tag, w[:, None], stats=stats)[:, 0]
        start = 0
        for (idx, _), w_col, bias, (bf_j, bf_b, bf_obj) in zip(
                group, ws, biases, _enumerate(stack, ws, biases, allow_bias)):
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
) -> CheckResult:
    """Compare a criterion's argmin against enumeration over random instances.

    ``data`` is the regime ``random_instance`` draws in, or "auto" for the
    one the criterion is claimed optimal for in ``CRITERION_RULES``.
    ``max_bias_shift`` records the largest |refit bias - original bias|
    seen, which must vanish on centered data. ``trials`` must be an integer
    in [1, ``MAX_TRIALS``] and ``seed`` one >= 0.
    """
    if tag not in CHECKABLE_TAGS:
        raise InvalidArgument(f"no optimality check for criterion {tag!r}; "
                         f"expected one of {sorted(CHECKABLE_TAGS)}")
    if not _is_count(trials, 1) or trials > MAX_TRIALS:
        raise InvalidArgument(f"trials must be an integer in [1, {MAX_TRIALS}], got {trials!r}")
    if not _is_count(seed):
        raise InvalidArgument(f"seed must be an integer >= 0, got {seed!r}")
    trials, seed = int(trials), int(seed)
    default_data, allow_bias = CRITERION_RULES[tag].optimal_in
    data = default_data if data == "auto" else data
    if data not in DATA_REGIMES:
        raise InvalidArgument(f"unknown data regime {data!r}")

    mismatches, max_bias_shift, first = 0, 0.0, None
    for start in range(0, trials, _WINDOW):
        count, shift, window_first = _check_window(
            tag, data, allow_bias, seed, range(start, min(start + _WINDOW, trials)))
        mismatches, max_bias_shift = mismatches + count, max(max_bias_shift, shift)
        first = first or window_first  # windows run in trial order
    if first:
        # Only the first counterexample is reported, so only it is built;
        # its instance is drawn again from the trial's own seed.
        idx, (crit_j, bf_j, bf_obj) = first
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,)))
        calib, w_col, bias = random_instance(rng, data)
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
        matches=trials - mismatches,
        mismatches=mismatches,
        max_bias_shift=max_bias_shift,
        first_counterexample=first,
    )
