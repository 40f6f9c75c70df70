"""Working-set gates for a layer's largest temporaries.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is what it allocates beyond its inputs, its result included. The sparsegpt
score holds one m x m temporary, the damped Gram factored and inverted in
place, and frees it before it allocates the scores; the error report holds
two output-sized buffers. A solve against ``eye(m)``, a LAPACK copy that
is not overwritten, or a new temporary per arithmetic step breaks these
bounds.
"""

import tracemalloc

import numpy as np

from prunekit import GramAccumulator, WeightLayer, reconstruction_mse, score_sparsegpt

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
    peak = _traced_peak(lambda: score_sparsegpt(weights, gram))
    assert peak <= 1.5 * M * M * 8  # the damped copy, then the scores


def test_reconstruction_error_holds_two_output_buffers():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((M, M))
    original = WeightLayer(rng.standard_normal((M, M)), rng.standard_normal(M), False)
    pruned = WeightLayer(original.weights * (rng.random((M, M)) < 0.5),
                         rng.standard_normal(M), False)
    peak = _traced_peak(lambda: reconstruction_mse(original, pruned, rows))
    assert peak <= 2.5 * M * M * 8  # y0 and y1, each rows x outputs
