"""Post-training weight pruning toolkit; README describes the engine."""

from .compensate import bias_delta_norm, bias_update
from .container import (
    TensorContainer,
    WeightLayer,
    load_container,
    save_container,
)
from .criteria import (
    CRITERION_TAGS,
    Criterion,
    GramAccumulator,
    compute_scores,
    select_criterion,
)
from .harness import (
    ComparisonTable,
    ToyMlpConfig,
    forward_toy,
    gen_toy_mlp,
    run_comparison,
)
from .masks import (
    SparsitySpec,
    apply_mask,
    build_mask,
    mask_violation,
)
from .oracle import (
    CheckResult,
    brute_force_single_prune,
    check_criterion_optimality,
    random_instance,
)
from .pruner import (
    LayerReport,
    PruneReport,
    classify_centered,
    prune_container,
    prune_layer,
    reconstruction_mse,
)
from .stats import (
    ColumnStats,
    stats_init,
    stats_merge,
    stats_update,
)

__version__ = "0.1.0"

__all__ = [
    "CRITERION_TAGS",
    "CheckResult",
    "ColumnStats",
    "ComparisonTable",
    "Criterion",
    "GramAccumulator",
    "LayerReport",
    "PruneReport",
    "SparsitySpec",
    "TensorContainer",
    "ToyMlpConfig",
    "WeightLayer",
    "apply_mask",
    "bias_delta_norm",
    "bias_update",
    "brute_force_single_prune",
    "build_mask",
    "check_criterion_optimality",
    "classify_centered",
    "compute_scores",
    "forward_toy",
    "gen_toy_mlp",
    "load_container",
    "mask_violation",
    "prune_container",
    "prune_layer",
    "random_instance",
    "reconstruction_mse",
    "run_comparison",
    "save_container",
    "select_criterion",
    "stats_init",
    "stats_merge",
    "stats_update",
]
