"""Seeded experiment harness.

A trial inserts a shuffled key permutation into a fresh tree; every
insertion assigns an address under the configured scheme, and every
rotation re-addresses moved nodes and records the resulting bit flips.
Wall time is accumulated over the addressing-side work only (address
computation, conflict resolution, re-assignment, flip accounting); pure
tree insertion is excluded, so scheme timings stay comparable.  Flip
counts are summed as ints for ``record_rotation``; only an
``after_rotation_hook`` gets ``WordWrite`` lists.

Trials are independent and reproducible: all randomness derives from
(base_seed, width, scheme, trial index) by SHA-256, from CPython's own
module where there is one since ``hashlib`` loads OpenSSL, and the key
permutation for a given (base_seed, width, trial) is shared by every
scheme so scheme comparisons are paired.  A grid works out each cell's
tree size and checks it once, then describes each trial as its (cell,
trial) key and :func:`run_trial`'s own arguments, which a pool worker
runs unchanged.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Optional

from .accounting import (
    AccountingConfig,
    FlipLedger,
    WordWrite,
    record_rotation,
)
from .addressing import (AddressAssigner, SchemeConfig, SchemeKind, check_ratio,
                         tree_height_estimate)
from .avl import AvlTree

try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11 and earlier
    except ImportError:
        from hashlib import sha256

INCREMENTAL = "incremental"
FULL_PASS = "full-pass"
REASSIGN_MODES = (INCREMENTAL, FULL_PASS)

# How rotation statistics count an LR/RL double: "per-case" books one
# rotation at the unbalanced node's level (both halves' flips credited
# there); "decomposed" books each half at its own pivot level.  The
# event stream itself is always decomposed.
PER_CASE = "per-case"
DECOMPOSED = "decomposed"
ROTATION_COUNTINGS = (PER_CASE, DECOMPOSED)

DEFAULT_TRIALS = 100
DEFAULT_RATIOS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
_DOUBLE_KINDS = ("LR", "RL")

#: Most nodes one trial may build, nodes_for_width(24).  A width-14 trial
#: peaks at 260-360 bytes per node under tracemalloc (key list, tree
#: node, address record, dict entries); at 512 with headroom, 2**22 nodes
#: take 2 GiB, so two pool workers fit in 8 GiB of memory with room left.
MAX_NODES = (1 << 22) - 1


def check_tree_size(num_nodes: int) -> int:
    """``num_nodes`` if one trial can build a tree that large."""
    if not 1 <= num_nodes <= MAX_NODES:
        raise ValueError(f"{num_nodes} nodes outside [1, {MAX_NODES}]: "
                         "a larger tree does not fit in memory")
    return num_nodes


def nodes_for_width(width: int) -> int:
    """Node count paired with a pointer width: 2**(width-2) - 1."""
    if not 3 <= width <= MAX_NODES.bit_length() + 2:
        raise ValueError(f"width {width} outside [3, {MAX_NODES.bit_length() + 2}]: "
                         "a wider tree does not fit in memory")
    return (1 << (width - 2)) - 1


def check_modes(reassign_mode: str, rotation_counting: str) -> None:
    """The one check of the mode and counting names."""
    if reassign_mode not in REASSIGN_MODES:
        raise ValueError(f"unknown reassign mode {reassign_mode!r}")
    if rotation_counting not in ROTATION_COUNTINGS:
        raise ValueError(f"unknown rotation counting {rotation_counting!r}")


def _derive(*parts) -> int:
    digest = sha256("|".join(map(str, parts)).encode()).hexdigest()
    return int(digest[:16], 16)


def dataset_seed(base_seed: int, width: int, trial: int) -> int:
    """Key-permutation seed; deliberately scheme-independent."""
    return _derive("dataset", base_seed, width, trial)


def scheme_seed(base_seed: int, width: int, tag: str, ratio, trial: int) -> int:
    return _derive("scheme", base_seed, width, tag, ratio, trial)


def gen_dataset(n: int, seed: int) -> list:
    """Uniform permutation of 0..n-1 via a seeded Fisher-Yates shuffle."""
    if n < 1:
        raise ValueError("n must be >= 1")
    items = list(range(n))
    random.Random(seed).shuffle(items)
    return items


def balanced_insertion_order(n: int) -> list:
    """Keys 0..n-1 ordered so plain insertion builds a balanced tree
    with no rotations (breadth-first midpoint splitting)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    order = []
    queue = [(0, n)]
    head = 0
    while head < len(queue):
        lo, hi = queue[head]
        head += 1
        if lo >= hi:
            continue
        mid = (lo + hi) // 2
        order.append(mid)
        queue.append((lo, mid))
        queue.append((mid + 1, hi))
    return order


class TrialRunner:
    """Wires one tree, one assigner and one ledger together."""

    def __init__(
        self,
        scheme: SchemeConfig,
        accounting: AccountingConfig,
        reassign_mode: str = INCREMENTAL,
        num_nodes: Optional[int] = None,
        rotation_counting: str = PER_CASE,
    ):
        check_modes(reassign_mode, rotation_counting)
        self.tree = AvlTree()
        self.assigner = AddressAssigner(scheme, num_nodes)
        self.ledger = FlipLedger()
        self.accounting = accounting
        self.reassign_mode = reassign_mode
        self.rotation_counting = rotation_counting
        self.addressing_seconds = 0.0
        self._pending_half = None  # first half of a double, per-case mode
        # Observers used by verification harnesses; not set in normal runs.
        self.before_rotation_hook = None
        self.after_rotation_hook = None

    def insert(self, key: int) -> None:
        self.run((key,))

    def run(self, keys) -> None:
        """Insert ``keys``: one tree call per key, hooks bound once."""
        insert = self.tree.insert
        on_attach, on_rotation = self._on_attach, self._on_rotation
        before = self.before_rotation_hook
        for key in keys:
            insert(key, on_attach, before, on_rotation)
            if self._pending_half is not None:
                raise RuntimeError("double rotation emitted an odd event count")
        self.ledger.overflow_fallbacks = self.assigner.overflow_fallbacks
        self.ledger.indexed_nodes = self.assigner.indexed_nodes

    # -- hooks -----------------------------------------------------------
    def _on_attach(self, node, depth, heap_id) -> None:
        t0 = perf_counter()
        self.assigner.assign_on_insert(node, depth, heap_id)
        self.addressing_seconds += perf_counter() - t0

    def _on_rotation(self, event) -> None:
        t0 = perf_counter()
        records = self.assigner.records
        hook = self.after_rotation_hook
        acct = self.accounting
        # Old slot words are read only if pointer rewrites count or a hook looks.
        count_pointers = acct.count_pointer_rewrites
        rewired = event.rewired if count_pointers or hook is not None else ()
        old_words = [records[old].addr for _, old, _ in rewired]
        if self.reassign_mode == FULL_PASS:
            relabels = self.assigner.full_pass(self.tree)
        elif self.assigner.identity_bound:
            relabels = ()  # no moved set to walk: nothing is re-addressed
        else:
            relabels = self.assigner.rebind_moved(event)
        # A pointer rewrite is a slot that now links a *different* node (a
        # rewired one).  Slots that keep their child but see its address
        # change are relabel propagation, charged as relabels.
        pointer_flips = relabel_flips = 0
        if count_pointers:
            for (_, _, new), old_word in zip(rewired, old_words):
                pointer_flips += (old_word ^ records[new].addr).bit_count()
        if acct.count_node_relabels:
            for _, old, new in relabels:
                relabel_flips += (old ^ new).bit_count()
        held = self._pending_half
        if held is not None:  # second half of a double, per-case mode
            self._pending_half = None
            record_rotation(event, held[0] + relabel_flips,
                            held[1] + pointer_flips, self.ledger, acct)
        elif self.rotation_counting == PER_CASE and event.kind in _DOUBLE_KINDS:
            # First half of a double: hold its flips for the case.
            self._pending_half = (relabel_flips, pointer_flips)
        else:
            record_rotation(event, relabel_flips, pointer_flips, self.ledger, acct)
        self.addressing_seconds += perf_counter() - t0
        if hook is not None:  # the writes themselves, outside the timed span
            rewrites = [
                WordWrite(slot, old_word, records[new].addr)
                for (slot, _, new), old_word in zip(rewired, old_words)
                if records[new].addr != old_word
            ]
            hook(event, [WordWrite(("label", node), old, new)
                         for node, old, new in relabels], rewrites)


def run_trial(
    scheme: SchemeConfig,
    seed: int,
    accounting: Optional[AccountingConfig] = None,
    reassign_mode: str = INCREMENTAL,
    num_nodes: Optional[int] = None,
    rotation_counting: str = PER_CASE,
):
    """One complete trial; returns (ledger, addressing wall seconds).

    ``seed`` drives the key permutation; the scheme's own randomness
    (random allocation) comes from ``scheme.seed``.  The tree holds
    ``num_nodes`` keys, by default ``nodes_for_width(scheme.pointer_width)``.
    """
    if accounting is None:
        accounting = AccountingConfig()
    if num_nodes is None:
        num_nodes = nodes_for_width(scheme.pointer_width)
    check_tree_size(num_nodes)  # fail before the keys are generated
    runner = TrialRunner(scheme, accounting, reassign_mode, num_nodes, rotation_counting)
    runner.run(gen_dataset(num_nodes, seed))
    return runner.ledger, runner.addressing_seconds


# ----------------------------------------------------------------------
# experiment grids
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemeSpec:
    """A scheme choice independent of pointer width."""

    kind: SchemeKind
    threshold_ratio: Optional[Fraction] = None

    def __post_init__(self):
        ratio = check_ratio(self.kind, self.threshold_ratio)
        object.__setattr__(self, "threshold_ratio", ratio)

    @property
    def tag(self) -> str:
        return self.kind.value


@dataclass
class ExperimentConfig:
    widths: list
    schemes: list  # SchemeSpec
    trials: int = DEFAULT_TRIALS
    base_seed: int = 0
    accounting: AccountingConfig = field(default_factory=AccountingConfig)
    reassign_mode: str = INCREMENTAL
    rotation_counting: str = PER_CASE

    def __post_init__(self):
        for width in self.widths:
            if width < 8:
                raise ValueError(f"width {width} below 8")
            nodes_for_width(width)  # a tree too large to build fails here
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_modes(self.reassign_mode, self.rotation_counting)


@dataclass
class CellResult:
    """Aggregates for one (width, scheme) grid cell."""

    width: int
    scheme_tag: str
    threshold_ratio: Optional[Fraction]
    trials: int
    base_seed: int
    ledger: FlipLedger
    wall_seconds_total: float

    @property
    def mean_flips_per_rotation(self) -> Optional[float]:
        if self.ledger.total_rotations == 0:
            return None
        return self.ledger.total_flips / self.ledger.total_rotations

    @property
    def wall_seconds_per_trial(self) -> float:
        return self.wall_seconds_total / self.trials


def _map_trials(fn, tasks, jobs: int) -> list:
    """``fn`` over ``tasks``, in a process pool when ``jobs`` > 1; the
    (key, ...) outcomes come back sorted by key, whatever the schedule."""
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run skips its import
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(fn, tasks, chunksize=1))
    else:
        outcomes = [fn(task) for task in tasks]
    return sorted(outcomes, key=lambda item: item[0])


def _trial_task(task):
    """A grid trial's outcome under its (cell, trial) key; the task is
    that key followed by :func:`run_trial`'s arguments."""
    key, *args = task
    return key, *run_trial(*args)


def _run_cells(cells, trials: int, base_seed: int,
               accounting: Optional[AccountingConfig], reassign_mode: str,
               jobs: int, rotation_counting: str) -> list:
    """Every trial of every (width, spec, num_nodes) cell through one
    :func:`_map_trials` call, so one process pool serves the whole
    experiment; each cell's outcomes are merged in trial order.
    Returns the CellResults in cell order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if accounting is None:
        accounting = AccountingConfig()
    sizes = [  # fail before any trial allocates
        check_tree_size(nodes_for_width(width) if num_nodes is None else num_nodes)
        for width, _, num_nodes in cells
    ]
    tasks = [
        ((cell, trial),
         SchemeConfig(spec.kind, width, spec.threshold_ratio,
                      seed=scheme_seed(base_seed, width, spec.tag, spec.threshold_ratio, trial)),
         dataset_seed(base_seed, width, trial), accounting, reassign_mode,
         sizes[cell], rotation_counting)
        for cell, (width, spec, _) in enumerate(cells)
        for trial in range(trials)
    ]
    ledgers = [FlipLedger() for _ in cells]
    walls = [0.0] * len(cells)
    for (cell, _), ledger, wall in _map_trials(_trial_task, tasks, jobs):
        ledgers[cell] = ledgers[cell].merge(ledger)
        walls[cell] += wall
    return [
        CellResult(width, spec.tag, spec.threshold_ratio, trials, base_seed,
                   ledgers[cell], walls[cell])
        for cell, (width, spec, _) in enumerate(cells)
    ]


def run_cell(
    width: int,
    spec: SchemeSpec,
    trials: int,
    base_seed: int,
    reassign_mode: str = INCREMENTAL,
    jobs: int = 1,
) -> CellResult:
    (cell,) = _run_cells([(width, spec, None)], trials, base_seed, None,
                         reassign_mode, jobs, PER_CASE)
    return cell


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list:
    """Run the full (width x scheme) grid; returns CellResults in grid order."""
    cells = [(width, spec, None) for width in config.widths for spec in config.schemes]
    return _run_cells(cells, config.trials, config.base_seed, config.accounting,
                      config.reassign_mode, jobs, config.rotation_counting)


def compare_thresholds(
    num_nodes: int,
    ratios=DEFAULT_RATIOS,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = 0,
    accounting: Optional[AccountingConfig] = None,
    reassign_mode: str = INCREMENTAL,
    jobs: int = 1,
    rotation_counting: str = PER_CASE,
) -> list:
    """Run the hybrid scheme at each threshold ratio on one tree size.

    Returns one :class:`CellResult` per ratio, in ratio order; the
    pointer width is the height estimate plus two, the number of bits
    needed to address such a tree.
    """
    width = tree_height_estimate(num_nodes) + 2
    return _run_cells(
        [(width, SchemeSpec(SchemeKind.HART, ratio), num_nodes) for ratio in ratios],
        trials, base_seed, accounting, reassign_mode, jobs, rotation_counting,
    )


def _histogram_task(task):
    key, num_nodes, seed, counting = task
    tree = AvlTree()
    counts: dict = {}
    for new_key in gen_dataset(num_nodes, seed):
        events = tree.insert(new_key)
        if not events:
            continue
        if counting == PER_CASE:
            # The case pivot is the last event of the insert's rebalance.
            levels = (events[-1].pivot_level,)
        else:
            levels = tuple(e.pivot_level for e in events)
        for level in levels:
            counts[level] = counts.get(level, 0) + 1
    return key, counts


def rotations_histograms(
    widths,
    trials: int,
    base_seed: int = 0,
    jobs: int = 1,
    rotation_counting: str = PER_CASE,
) -> list:
    """Average rotations per pivot level for each of ``widths``, in that
    order; every width's trials go through one :func:`_map_trials` call,
    so one process pool serves them all.  Addressing-independent."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_modes(INCREMENTAL, rotation_counting)
    tasks = [
        ((index, trial), nodes_for_width(width), dataset_seed(base_seed, width, trial),
         rotation_counting)
        for index, width in enumerate(widths)
        for trial in range(trials)
    ]
    totals = [Counter() for _ in widths]
    for (index, _), counts in _map_trials(_histogram_task, tasks, jobs):
        totals[index].update(counts)
    return [{level: total[level] / trials for level in sorted(total)}
            for total in totals]


def rotations_histogram(
    width: int,
    trials: int,
    base_seed: int = 0,
    jobs: int = 1,
    rotation_counting: str = PER_CASE,
) -> dict:
    """Average rotations per pivot level; addressing-independent."""
    (hist,) = rotations_histograms([width], trials, base_seed, jobs, rotation_counting)
    return hist
