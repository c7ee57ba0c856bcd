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
tree size and checks it once, then describes each trial by
:func:`run_trial`'s own arguments, which a forked worker runs unchanged.
"""

from __future__ import annotations

import os
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

#: Memory one trial may take per node of its tree.  Under tracemalloc a
#: width-16 incremental trial peaks at 263-326 bytes per node (key list,
#: tree node, address record, dict entries), and a full-pass trial at
#: 343-453 at widths 12-14; 512 leaves headroom over both.
BYTES_PER_NODE = 512

#: Most nodes one trial may build, nodes_for_width(24): at BYTES_PER_NODE,
#: 2**22 nodes take 2 GiB, so two workers fit in 8 GiB with room left.
MAX_NODES = (1 << 22) - 1


def check_tree_size(num_nodes: int) -> int:
    """``num_nodes`` if one trial can build a tree that large."""
    if not 1 <= num_nodes <= MAX_NODES:  # memory bounds only the top
        raise ValueError(f"{num_nodes} nodes outside [1, {MAX_NODES}]"
                         + (": a larger tree does not fit in memory" if num_nodes > 1 else ""))
    return num_nodes


def nodes_for_width(width: int) -> int:
    """Node count paired with a pointer width: 2**(width-2) - 1."""
    if not 3 <= width <= MAX_NODES.bit_length() + 2:
        raise ValueError(f"width {width} outside [3, {MAX_NODES.bit_length() + 2}]"
                         + (": a wider tree does not fit in memory" if width > 3 else ""))
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


class TrialRunner:
    """Wires one tree of ``num_nodes`` keys, one assigner and one ledger together."""

    def __init__(
        self,
        scheme: SchemeConfig,
        accounting: AccountingConfig,
        reassign_mode: str = INCREMENTAL,
        rotation_counting: str = PER_CASE,
        *,
        num_nodes: int,
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
        # Old field words are read only if pointer rewrites count or a hook looks.
        count_pointers = acct.count_pointer_rewrites
        rewired = event.rewired if count_pointers or hook is not None else ()
        old_words = [records[old].addr for old, _ in rewired]
        if self.reassign_mode == FULL_PASS:
            relabels = self.assigner.full_pass(self.tree)
        elif self.assigner.identity_bound:
            relabels = ()  # no moved set to walk: nothing is re-addressed
        else:
            relabels = self.assigner.rebind_moved(event)
        # A pointer rewrite is a field that now links a *different* node (a
        # rewired one).  Fields that keep their child but see its address
        # change are relabel propagation, charged as relabels.
        pointer_flips = relabel_flips = 0
        if count_pointers:
            for (_, new), old_word in zip(rewired, old_words):
                pointer_flips += (old_word ^ records[new].addr).bit_count()
        if acct.count_node_relabels:
            for _, old, new in relabels:
                relabel_flips += (old ^ new).bit_count()
        held = self._pending_half
        if held is not None:  # second half of a double, per-case mode
            self._pending_half = None
            record_rotation(event, held[0] + relabel_flips,
                            held[1] + pointer_flips, self.ledger, acct)
        elif self.rotation_counting == PER_CASE and event.kind in ("LR", "RL"):
            # First half of a double: hold its flips for the case.
            self._pending_half = (relabel_flips, pointer_flips)
        else:
            record_rotation(event, relabel_flips, pointer_flips, self.ledger, acct)
        self.addressing_seconds += perf_counter() - t0
        if hook is not None:  # the writes themselves, outside the timed span
            rewrites = [
                WordWrite(("link", new), old_word, records[new].addr)
                for (_, new), old_word in zip(rewired, old_words)
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
    runner = TrialRunner(scheme, accounting, reassign_mode, rotation_counting, num_nodes=num_nodes)
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


def _map_trials(fn, tasks, jobs: int, nodes: int) -> list:
    """``fn`` over ``tasks``, whose largest tree has ``nodes`` nodes,
    outcomes in task order: N = min(jobs, tasks, CPUs, trees of
    :data:`BYTES_PER_NODE` that physical memory holds, at least one)
    forked workers each pipe back every N-th task's outcome, or the
    exception to raise here; with N < 2, or no ``os.fork``, in-process."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError):  # no sysconf, or not these names
        pass
    else:
        workers = min(workers, max(1, memory // (nodes * BYTES_PER_NODE)))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    import pickle, signal  # an in-process run loads neither
    running = {}  # pid -> the read end of its pipe, until the worker is reaped
    try:
        for k in range(workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker leaves by os._exit: no flush, no atexit
                try:
                    try:
                        outcome = True, [fn(task) for task in tasks[k::workers]]
                    except Exception as exc:
                        outcome = False, exc
                    with open(write_end, "wb") as pipe:
                        pickle.dump(outcome, pipe)
                    os._exit(0)
                finally:  # whatever escaped, this worker goes no further
                    os._exit(1)
            os.close(write_end)
            running[pid] = open(read_end, "rb")
        shares = []
        for pid, pipe in list(running.items()):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if status:
                raise RuntimeError(f"trial worker {pid} exited with status {status}")
            ok, share = pickle.loads(data)
            if not ok:
                raise share
            shares.append(share)
    finally:
        for pid, pipe in running.items():  # after an error: stop and reap the rest
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[i % workers][i // workers] for i in range(len(tasks))]


def _trial_task(args):
    """A grid trial's outcome; the task is :func:`run_trial`'s arguments."""
    return run_trial(*args)


def _run_cells(cells, trials: int, base_seed: int,
               accounting: Optional[AccountingConfig], reassign_mode: str,
               jobs: int, rotation_counting: str) -> list:
    """Every trial of every (width, spec, num_nodes) cell through one
    :func:`_map_trials` call, so one fan-out serves the whole experiment.
    Tasks are listed cell by cell, so each worker's stride takes a share
    of every cell, and outcome i belongs to cell i // trials; each cell's
    outcomes are merged in trial order.  Returns CellResults in order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sizes = [  # fail before any trial allocates
        check_tree_size(nodes_for_width(width) if num_nodes is None else num_nodes)
        for width, _, num_nodes in cells
    ]
    tasks = [
        (SchemeConfig(spec.kind, width, spec.threshold_ratio,
                      seed=scheme_seed(base_seed, width, spec.tag, spec.threshold_ratio, trial)),
         dataset_seed(base_seed, width, trial), accounting, reassign_mode,
         size, rotation_counting)
        for (width, spec, _), size in zip(cells, sizes)
        for trial in range(trials)
    ]
    ledgers = [FlipLedger() for _ in cells]
    walls = [0.0] * len(cells)
    outcomes = _map_trials(_trial_task, tasks, jobs, max(sizes, default=1))
    for i, (ledger, wall) in enumerate(outcomes):
        cell = i // trials
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
    num_nodes, seed, counting = task
    tree = AvlTree()
    counts = Counter()
    for new_key in gen_dataset(num_nodes, seed):
        events = tree.insert(new_key)
        if not events:
            continue
        if counting == PER_CASE:  # the case pivot is the rebalance's last event
            counts[events[-1].pivot_level] += 1
        else:
            counts.update(e.pivot_level for e in events)
    return counts


def rotations_histograms(
    widths,
    trials: int,
    base_seed: int = 0,
    jobs: int = 1,
    rotation_counting: str = PER_CASE,
) -> list:
    """Average rotations per pivot level for each of ``widths``, in that
    order; every width's trials go through one :func:`_map_trials` call,
    so one fan-out serves them all.  Addressing-independent."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_modes(INCREMENTAL, rotation_counting)
    sizes = [nodes_for_width(width) for width in widths]
    tasks = [
        (size, dataset_seed(base_seed, width, trial), rotation_counting)
        for width, size in zip(widths, sizes)
        for trial in range(trials)
    ]
    totals = [Counter() for _ in widths]
    outcomes = _map_trials(_histogram_task, tasks, jobs, max(sizes, default=1))
    for i, counts in enumerate(outcomes):
        totals[i // trials].update(counts)
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
