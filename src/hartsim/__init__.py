"""Benchmark suite for address-allocation schemes on AVL trees stored in
bit-flip-limited (phase-change) memory."""

from .accounting import (
    AccountingConfig,
    FlipLedger,
    WordWrite,
    record_rotation,
)
from .addressing import (
    AddressAssigner,
    AddressSpace,
    CapacityError,
    SchemeConfig,
    SchemeKind,
    threshold_from_ratio,
    tree_height_estimate,
)
from .avl import (
    AvlTree,
    DuplicateKeyError,
    RotationEvent,
)
from .harness import (
    ExperimentConfig,
    SchemeSpec,
    TrialRunner,
    compare_thresholds,
    gen_dataset,
    nodes_for_width,
    rotations_histogram,
    run_cell,
    run_experiment,
    run_trial,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
