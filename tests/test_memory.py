"""Working-set gates for a layer's largest temporaries.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is what it allocates beyond its inputs, its result included. A Gram update
holds one m x m product, summed into in place and never mirrored; the
sparsegpt score holds one m x m temporary, the damped Gram factored and
inverted in place, and frees it before it squares the weights; float32
weights are scored in their widened copy; the bias update forms its products
a block of rows at a time; the error report holds the widened weight
difference, its n x H error buffer and one chunk of rows; the statistics
widen a few blocks of rows, never the whole batch, whatever its dtype. A
solve against ``eye(m)``, a LAPACK copy that is not overwritten, a new
temporary per arithmetic step, a batch widened at once, or a chunk's own
product breaks these bounds. A loaded float32 payload is held as float32,
in arrays of its own, and the load reads each tensor straight into its
array, never holding the file's bytes beside them. ``prune`` never holds
both input files whole. It reads a layer's calibration rows in two ranges:
the statistics rows (for sparsegpt-score filled straight into the one
float64 copy that the statistics and the Gram share, then dropped), and the
held-out rows only for the error report. It reads the layer's weights and
bias when the score starts, drops them once the removed weights' float64
difference is formed, so the error report holds no weights, and reads them
again to build the pruned layer. It writes each pruned layer to ``--out``
as soon as it is pruned, so a run holds no layer's outputs beyond the
layer's own pruning, whether its layers have a bias or not. A verify check
holds one window of trials at a time, and running totals of the windows
before it, whatever its trial count.
"""

import contextlib
import io
import os
import tracemalloc

import numpy as np
import pytest

from prunekit import (
    Criterion,
    GramAccumulator,
    SparsitySpec,
    TensorContainer,
    WeightLayer,
    bias_update,
    build_mask,
    check_criterion_optimality,
    compute_scores,
    load_container,
    prune_layer,
    reconstruction_mse,
    save_container,
    stats_init,
    stats_update,
)
from prunekit import cli, oracle
from prunekit.errors import TruncatedPayload
from prunekit.pruner import _EVAL_ROWS, HOLDOUT_FRACTION, _holdout_bounds
from prunekit.stats import _BLOCK_ROWS

M = 512


def _traced_peak(call) -> int:
    """Peak bytes traced while ``call`` runs, beyond what was traced before."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sparsegpt_score_holds_one_square_temporary():
    rng = np.random.default_rng(0)
    gram = GramAccumulator(M)
    gram.update(rng.standard_normal((2 * M, M)))
    weights = rng.standard_normal((M, M))
    # The first call imports scipy, once per process.
    compute_scores("sparsegpt-score", weights, gram=gram)
    peak = _traced_peak(lambda: compute_scores("sparsegpt-score", weights, gram=gram))
    assert peak <= 1.5 * M * M * 8  # the damped copy, then the scores


def test_reconstruction_error_holds_two_output_buffers():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((M, M))
    original = WeightLayer(rng.standard_normal((M, M)), rng.standard_normal(M), False)
    pruned = WeightLayer(original.weights * (rng.random((M, M)) < 0.5),
                         rng.standard_normal(M), False)
    peak = _traced_peak(lambda: reconstruction_mse(original, pruned, rows))
    assert peak <= 2.5 * M * M * 8  # the weight difference and the error buffer


def test_float32_error_holds_one_widened_layer_its_buffer_and_a_chunk():
    rng = np.random.default_rng(5)
    n = 4 * _EVAL_ROWS  # four chunks, so M x M layers are split
    rows = rng.standard_normal((n, M)).astype(np.float32)
    weights = rng.standard_normal((M, M)).astype(np.float32)
    original = WeightLayer(weights, rng.standard_normal(M).astype(np.float32), False)
    pruned = WeightLayer(np.where(rng.random((M, M)) < 0.5, 0.0, weights), None, False)
    peak = _traced_peak(lambda: reconstruction_mse(original, pruned, rows))
    # The widened weight difference, the n x M error buffer, and a chunk's
    # widened rows with its one-byte finiteness check; a chunk's own output
    # is _EVAL_ROWS x M more, and the rows widened whole n x M more.
    assert peak <= 1.01 * ((M * M + n * M + _EVAL_ROWS * M) * 8 + _EVAL_ROWS * M)


@pytest.mark.parametrize("tag", ["magnitude", "wanda", "stade", "stade-star"])
def test_float32_weights_are_scored_in_their_widened_copy(tag):
    rng = np.random.default_rng(7)
    weights = rng.standard_normal((M, M)).astype(np.float32)
    stats = stats_update(stats_init(M), rng.standard_normal((64, M)))
    peak = _traced_peak(lambda: compute_scores(tag, weights, stats=stats))
    # The widened copy, which becomes the scores, and its one-byte finiteness
    # check; scores of their own are one more widened copy.
    assert peak <= 1.01 * (M * M * 8 + M * M)


def test_bias_update_holds_one_block_of_the_products():
    rng = np.random.default_rng(8)
    layer = WeightLayer(rng.standard_normal((M, M)).astype(np.float32), None, False)
    stats = stats_update(stats_init(M), rng.standard_normal((64, M)))
    mask = rng.random((M, M)) < 0.5
    peak = _traced_peak(lambda: bias_update(layer, mask, stats))
    # One (block + 1)-row buffer and numpy's casting buffers; the whole
    # masked-mean and weight products are two M x M arrays.
    assert peak <= 1.2 * (_BLOCK_ROWS + 1) * M * 8


def test_gram_update_holds_one_square_product():
    rows = np.random.default_rng(6).standard_normal((2 * M, M))
    gram = GramAccumulator(M)
    peak = _traced_peak(lambda: gram.update(rows))
    # The product, summed in place; its mirrored average would be one more.
    assert peak <= 1.25 * M * M * 8


def test_statistics_widen_a_few_blocks_not_the_batch():
    rng = np.random.default_rng(2)
    for rows in (rng.standard_normal((4096, M)).astype(np.float32),
                 rng.integers(-1000, 1000, (4096, M), dtype=np.int32)):
        stats = stats_init(M)
        peak = _traced_peak(lambda: stats_update(stats, rows))
        # The first block, its squares and the buffer later blocks are widened
        # into; the whole batch widened is 16 blocks, its squares 16 more.
        assert peak <= 4 * _BLOCK_ROWS * M * 8, rows.dtype


def test_verify_working_set_does_not_grow_with_trials():
    check = check_criterion_optimality  # offset data: mismatches and a counterexample
    small = _traced_peak(lambda: check("wanda", 1000, 0, data="offset"))
    large = _traced_peak(lambda: check("wanda", 8000, 0, data="offset"))
    # Per-trial seeds or outcomes kept for the whole run grow eightfold.
    assert large <= 1.25 * small


def test_verify_keeps_running_totals_not_a_record_per_window(monkeypatch):
    # 10**8 trials are 97,657 windows; a record kept for each one until the
    # end holds megabytes, the running totals a few objects.
    monkeypatch.setattr(oracle, "_check_window", lambda *args: (0, 0.5, None))
    peak = _traced_peak(lambda: check_criterion_optimality("stade", 10**8, 0))
    assert peak <= 4096


def test_loaded_float32_tensors_are_float32_and_own_their_memory(tmp_path):
    rng = np.random.default_rng(3)
    c = TensorContainer()
    c.add_layer("fc", WeightLayer(rng.standard_normal((64, 32)).astype(np.float32),
                                  rng.standard_normal(32).astype(np.float32), False))
    c.add("fc.calib", rng.standard_normal((128, 64)).astype(np.float32))
    path = tmp_path / "c.pkt"
    save_container(c, str(path))
    loaded = load_container(str(path))
    for name in ("fc", "fc.bias", "fc.calib"):
        array = root = loaded.get(name)
        assert array.dtype == np.float32, name
        while getattr(root, "base", None) is not None:
            root = root.base
        # Not the file's bytes, which are larger than any one tensor.
        assert memoryview(root).nbytes == array.nbytes, name


def _saved_float32_container(path) -> int:
    """Save a two-tensor float32 container to ``path``; return its payload bytes."""
    rng = np.random.default_rng(4)
    c = TensorContainer()
    c.add_layer("fc", WeightLayer(rng.standard_normal((M, M)).astype(np.float32),
                                  None, False))
    c.add("fc.calib", rng.standard_normal((2 * M, M)).astype(np.float32))
    save_container(c, str(path))
    return sum(e.array.nbytes for e in c.entries())


def test_load_holds_the_payload_once(tmp_path):
    path = tmp_path / "c.pkt"
    payload = _saved_float32_container(path)
    peak = _traced_peak(lambda: load_container(str(path)))
    assert peak <= 1.25 * payload  # the tensors' own arrays and the manifest


def test_file_shorter_than_its_stat_is_truncated(tmp_path, monkeypatch):
    path = tmp_path / "c.pkt"
    _saved_float32_container(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    real_fstat = os.fstat

    def stale_fstat(fd):  # the size the file had before its last 4 bytes went
        info = real_fstat(fd)
        return os.stat_result((*info[:6], info.st_size + 4, *info[7:10]))

    monkeypatch.setattr(os, "fstat", stale_fstat)
    with pytest.raises(TruncatedPayload, match="file ends inside"):
        load_container(str(path))


@pytest.mark.parametrize("biased, criterion", [(True, "stade-w"), (False, "stade")],
                         ids=["biases", "bias-less-with-update"])
def test_prune_holds_a_layer_at_a_time_not_its_outputs_or_both_files(tmp_path, biased,
                                                                      criterion):
    rng = np.random.default_rng(9)
    m, n, layers = 256, 512, 8
    model, calib = TensorContainer(), TensorContainer()
    for i in range(layers):
        weights = rng.standard_normal((m, m)).astype(np.float32)
        bias = rng.standard_normal(m).astype(np.float32)  # drawn either way: same data
        model.add_layer(f"fc{i}", WeightLayer(weights, bias if biased else None,
                                              centered=i % 2 == 1))
        calib.add(f"fc{i}.calib", (rng.standard_normal((n, m)) + 3 * (i % 2 == 0))
                  .astype(np.float32))
    paths = {name: str(tmp_path / f"{name}.pkt") for name in ("model", "calib", "out")}
    save_container(model, paths["model"])
    save_container(calib, paths["calib"])
    argv = ["prune", "--model", paths["model"], "--calib", paths["calib"],
            "--criterion", criterion, "--sparsity", "0.5", "--threads", "1",
            "--out", paths["out"]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # imports and first-call caches, outside the trace
        peak = _traced_peak(lambda: cli.main(argv))
    inputs = (m * m + m + n * m) * 4  # one layer's weights, bias and calibration rows
    working = max(_traced_peak(lambda: prune_layer(
        name, model.get_layer(name), calib.get(f"{name}.calib"), Criterion(criterion),
        SparsitySpec(ratio=0.5))) for name in ("fc0", "fc1"))
    # About two layers' inputs and one layer's working set. Each layer goes
    # to the file when it is pruned, with or without a bias of its own: the
    # other layers' outputs held are seven layers' outputs more, both input
    # files held whole six layers' inputs more.
    assert peak <= 2 * inputs + working


def test_sparsegpt_prune_holds_float64_training_rows_not_their_float32_file_rows(tmp_path):
    rng = np.random.default_rng(10)
    m, h, n = 512, 512, 4096
    model, calib = TensorContainer(), TensorContainer()
    for i in range(2):
        model.add_layer(f"fc{i}", WeightLayer(rng.standard_normal((m, h)).astype(np.float32),
                                              None, centered=False))
        calib.add(f"fc{i}.calib", rng.standard_normal((n, m)).astype(np.float32))
    paths = {name: str(tmp_path / f"{name}.pkt") for name in ("model", "calib", "out")}
    save_container(model, paths["model"])
    save_container(calib, paths["calib"])
    argv = ["prune", "--model", paths["model"], "--calib", paths["calib"],
            "--criterion", "sparsegpt-score", "--sparsity", "2:4", "--threads", "1",
            "--out", paths["out"]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # imports and first-call caches, outside the trace
        peak = _traced_peak(lambda: cli.main(argv))
    train_end, _ = _holdout_bounds(n, HOLDOUT_FRACTION)
    held_out = (n - train_end) * m * 4
    # One layer's training rows in float64, the Gram's zero start and the
    # m x m product summed into it, with half the float32 held-out rows to
    # spare; the layer's weights are read after the Gram. The held-out rows
    # read before the Gram, or the float32 training rows beside their float64
    # copy (8 x the spare), break it. No layer's outputs are held: fc0's
    # float32 weights and mask held through fc1's Gram (1.5 x the spare)
    # break it too.
    bound = train_end * m * 8 + 2 * m * m * 8 + held_out // 2
    assert peak <= bound


def test_prune_holds_no_weights_through_the_error_report(tmp_path):
    rng = np.random.default_rng(12)
    m, h, n, layers = 256, 2048, 512, 4  # wide layers, so the weights dominate
    model, calib = TensorContainer(), TensorContainer()
    for i in range(layers):
        model.add_layer(f"fc{i}", WeightLayer(rng.standard_normal((m, h)).astype(np.float32),
                                              rng.standard_normal(h).astype(np.float32),
                                              centered=i % 2 == 1))
        calib.add(f"fc{i}.calib", (rng.standard_normal((n, m)) + 3 * (i % 2 == 0))
                  .astype(np.float32))
    paths = {name: str(tmp_path / f"{name}.pkt") for name in ("model", "calib", "out")}
    save_container(model, paths["model"])
    save_container(calib, paths["calib"])
    argv = ["prune", "--model", paths["model"], "--calib", paths["calib"],
            "--criterion", "stade-w", "--sparsity", "0.5", "--threads", "1",
            "--out", paths["out"]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # imports and first-call caches, outside the trace
        peak = _traced_peak(lambda: cli.main(argv))
    size = m * h
    _, start = _holdout_bounds(n, HOLDOUT_FRACTION)
    held_out, chunk = n - start, min(n - start, _EVAL_ROWS)
    scores = np.abs(rng.standard_normal((m, h)))
    # The mask stage: the f32 weights, the float64 scores, and build_mask's
    # mask with one block's selection.
    masking = size * (4 + 8) + _traced_peak(lambda: build_mask(scores, SparsitySpec(ratio=0.5)))
    # The error report: the mask, the float64 weight difference, the error
    # buffer, the f32 held-out rows and one widened chunk with its one-byte
    # finiteness check. The f32 weights kept through it are 4 bytes a
    # weight more, and the parent's pruned copy 4 more again.
    error = size * (1 + 8) + held_out * h * 8 + held_out * m * 4 + chunk * m * (8 + 1)
    # No other layer's outputs are held. 2% for the layer's vectors and the
    # run's Python objects.
    assert peak <= 1.02 * max(masking, error)
