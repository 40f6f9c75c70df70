"""Outside-in span tracing of one benchmark repetition.

``install`` replaces prunekit's public functions at the names their callers
look them up by (for example ``prunekit.pruner.build_mask``, which
``prune_layer`` calls) with wrappers that record a span: id, name, thread,
parent, start, end and one exact count. The program's own code is unchanged.
Each thread keeps its own span stack; a span opened on a worker thread with
an empty stack takes as parent the innermost open span of the main thread,
which is the ``prune_container`` call waiting on the workers. Spans stay in
memory until the repetition ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

MB = 1e6


def _file_bytes(index):
    return lambda args, result: os.path.getsize(args[index])


def _rows(args, result):
    return args[1].shape[0]


def _score_flops(args, result):
    # Computed, not measured: the elementwise score is 2*M*H; sparsegpt-score
    # adds the Cholesky factorization (m^3/3) and two triangular solves
    # against the identity (2*m^3).
    m, h = args[1].shape
    return 2 * m * h + (m**3 // 3 + 2 * m**3 if args[0] == "sparsegpt-score" else 0)


def _gram_flops(args, result):
    n, m = args[1].shape
    return 2 * n * m * m


def _pruned(args, result):
    return int(result.sum())


def _bias_changed(args, result):
    return int(result is not args[0])


def _mismatches(args, result):
    return result.mismatches


def _targets():
    import prunekit.cli as cli
    import prunekit.oracle as oracle
    import prunekit.pruner as pruner
    from prunekit.container import TensorContainer
    from prunekit.criteria import GramAccumulator

    # (owner, attribute, count): the count of each span is, by name, file
    # bytes, rows, flops (computed), pruned weights, 1 per updated bias, or
    # oracle mismatches.
    return (
        (cli, "load_container", _file_bytes(0)),
        (cli, "save_container", _file_bytes(1)),
        (cli, "prune_container", None),
        (cli, "check_criterion_optimality", _mismatches),
        (pruner, "prune_layer", None),
        (pruner, "stats_update", _rows),
        (pruner, "compute_scores", _score_flops),
        (pruner, "build_mask", _pruned),
        (pruner, "mask_violation", None),
        (pruner, "bias_update", _bias_changed),
        (pruner, "reconstruction_mse", None),
        (GramAccumulator, "update", _gram_flops),
        (oracle, "brute_force_single_prune", None),
        (oracle, "stats_update", _rows),
        (oracle, "compute_scores", _score_flops),
        (TensorContainer, "get_layer", None),
    )


class Tracer:
    """Span recorder; create it on the main thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, thread, parent id (0: none), start, end, count]
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(self._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = [sid, name, threading.get_ident(), parent, start, end, 0]
                self.spans.append(span)
            if count is not None:
                span[6] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, count in _targets():
            prefix = owner.__name__.rsplit(".", 1)[-1]
            setattr(owner, attr, self.wrap(f"{prefix}.{attr}", getattr(owner, attr), count))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sid, _, _, parent, start, end, _ in spans:
        children[parent].append((start, end))
    return {sid: (end - start) - _covered(children[sid])
            for sid, _, _, _, start, end, _ in spans}


def nesting_errors(spans: list[list], main_thread: int) -> list[str]:
    """Check that spans nest: children inside parents, worker spans under
    ``prune_container``, and main-thread self times summing to each
    ``cli.main`` duration."""
    errors = []
    by_id = {s[0]: s for s in spans}
    main_children = defaultdict(list)
    for span in spans:
        sid, name, thread, parent, start, end, _ = span
        if parent == 0:
            if name != "cli.main":
                errors.append(f"span {name} has no parent")
            continue
        up = by_id.get(parent)
        if up is None or start < up[4] or end > up[5]:
            errors.append(f"span {name} lies outside its parent")
            continue
        if thread == main_thread and up[2] == main_thread:
            main_children[parent].append(span)
        elif thread != main_thread and up[2] == main_thread and up[1] != "cli.prune_container":
            errors.append(f"worker span {name} nests under {up[1]}, not cli.prune_container")
    for root in (s for s in spans if s[3] == 0):
        subtree, frontier = 0.0, [root]
        while frontier:
            span = frontier.pop()
            kids = main_children[span[0]]
            subtree += (span[5] - span[4]) - sum(k[5] - k[4] for k in kids)
            frontier.extend(kids)
        if abs(subtree - (root[5] - root[4])) > 1e-6:
            errors.append(f"main-thread self times sum to {subtree:.6f} s, "
                          f"cli.main took {root[5] - root[4]:.6f} s")
    return errors


def layer_metrics(spans: list[list], threads: int) -> dict[str, float]:
    """Per-layer metrics of one repetition (``trace.overhead_s`` is the caller's)."""
    selfs = self_times(spans)
    dur, calls, count, self_s = (defaultdict(float), defaultdict(int),
                                 defaultdict(int), defaultdict(float))
    for sid, name, _, _, start, end, n in spans:
        dur[name] += end - start
        calls[name] += 1
        count[name] += n
        self_s[name] += selfs[sid]
    layer_s, container_s = dur["pruner.prune_layer"], dur["cli.prune_container"]
    return {
        "container.load_s": dur["cli.load_container"],
        "container.save_s": dur["cli.save_container"],
        "container.get_layer_s": dur["TensorContainer.get_layer"],
        "container.load_mb": count["cli.load_container"] / MB,
        "container.save_mb": count["cli.save_container"] / MB,
        "stats.update_s": dur["pruner.stats_update"] + dur["oracle.stats_update"],
        "stats.update_calls": calls["pruner.stats_update"] + calls["oracle.stats_update"],
        "stats.rows": count["pruner.stats_update"] + count["oracle.stats_update"],
        "criteria.score_s": dur["pruner.compute_scores"] + dur["oracle.compute_scores"],
        "criteria.gram_s": dur["GramAccumulator.update"],
        "criteria.score_calls": calls["pruner.compute_scores"] + calls["oracle.compute_scores"],
        "criteria.flops": (count["pruner.compute_scores"] + count["oracle.compute_scores"]
                           + count["GramAccumulator.update"]),
        "masks.build_s": dur["pruner.build_mask"],
        "masks.check_s": dur["pruner.mask_violation"],
        "masks.pruned": count["pruner.build_mask"],
        "compensate.bias_s": dur["pruner.bias_update"],
        "compensate.layers_updated": count["pruner.bias_update"],
        "pruner.layer_s": layer_s,
        "pruner.layer_self_s": self_s["pruner.prune_layer"],
        "pruner.eval_s": dur["pruner.reconstruction_mse"],
        "pruner.container_s": container_s,
        "parallel.efficiency": layer_s / (threads * container_s) if container_s else 0.0,
        "oracle.check_s": dur["cli.check_criterion_optimality"],
        "oracle.enumerate_s": dur["oracle.brute_force_single_prune"],
        "oracle.enumerate_calls": calls["oracle.brute_force_single_prune"],
        "oracle.self_s": self_s["cli.check_criterion_optimality"],
        "oracle.mismatches": count["cli.check_criterion_optimality"],
        "cli.self_s": self_s["cli.main"],
    }
