"""Correctness checks for the benchmark, made apart from the program.

Every check returns a list of error strings; an empty list means the
check passed.  The references here share no code with hartsim's own
shortcuts: ranks come from explicit traversals of the complete tree,
rotation levels from a separate textbook AVL tree, index work from a
depth count over that tree, and flips from before/after snapshots of
every stored word.  hartsim is used only to produce the results under
test and to derive the same key permutations from a seed.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

LEFT, RIGHT = 0, 1


# ----------------------------------------------------------------------
# rank tables of the complete binary tree
# ----------------------------------------------------------------------
def dfat_rank_table(levels: int) -> dict:
    """{path: rank} from an alternating-order preorder walk of the
    complete tree of ``levels`` levels: Left first at even depths,
    Right first at odd depths."""
    ranks = {}
    stack = [()]
    while stack:
        path = stack.pop()
        ranks[path] = len(ranks)
        if len(path) + 1 < levels:
            first, second = (LEFT, RIGHT) if len(path) % 2 == 0 else (RIGHT, LEFT)
            stack.append(path + (second,))
            stack.append(path + (first,))
    return ranks


def level_order_table(levels: int) -> dict:
    """{path: rank} in breadth-first order, Left before Right."""
    ranks = {}
    frontier = [()]
    for _ in range(levels):
        for path in frontier:
            ranks[path] = len(ranks)
        frontier = [p + (step,) for p in frontier for step in (LEFT, RIGHT)]
    return ranks


def tree_paths(root) -> list:
    """(node, path) for every node reachable from ``root``."""
    out = []
    stack = [(root, ())] if root is not None else []
    while stack:
        node, path = stack.pop()
        out.append((node, path))
        if node.left is not None:
            stack.append((node.left, path + (LEFT,)))
        if node.right is not None:
            stack.append((node.right, path + (RIGHT,)))
    return out


def check_addresses(runner, rank_table=None) -> list:
    """Addresses of a finished trial: distinct, in range, never the null
    word, and every node recorded as positional at the Gray code of its
    position's rank in ``rank_table``."""
    errors = []
    width = runner.assigner.width
    null_word = (1 << width) - 1
    seen = {}
    entries = tree_paths(runner.tree.root)
    if len(entries) != len(runner.tree):
        errors.append(f"{len(entries)} nodes reachable, tree size {len(runner.tree)}")
    for node, path in entries:
        record = runner.assigner.records[node]
        addr = record.addr
        if not 0 <= addr < null_word:
            errors.append(f"key {node.key}: address {addr} outside [0, {null_word})")
        if addr in seen:
            errors.append(f"keys {seen[addr]} and {node.key} share address {addr}")
        seen[addr] = node.key
        if rank_table is not None and record.source == "positional":
            rank = rank_table.get(path)
            if rank is None or addr != rank ^ (rank >> 1):
                errors.append(
                    f"key {node.key} at depth {len(path)}: positional address "
                    f"{addr} is not the Gray code of rank {rank}"
                )
    return errors


# ----------------------------------------------------------------------
# reference AVL tree
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("key", "left", "right", "height")

    def __init__(self, key):
        self.key = key
        self.left = None
        self.right = None
        self.height = 1


def _height(node) -> int:
    return node.height if node is not None else 0


def _refresh(node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))


def _rotate_left(z):
    y = z.right
    z.right, y.left = y.left, z
    _refresh(z)
    _refresh(y)
    return y


def _rotate_right(z):
    y = z.left
    z.left, y.right = y.right, z
    _refresh(z)
    _refresh(y)
    return y


class ReferenceAvl:
    """Textbook AVL insertion.

    ``case_levels[level]`` counts rebalancing inserts by the 1-based
    level of the unbalanced node (per-case counting).  When
    ``on_single`` is given it is called with the tree after every single
    rotation, the two halves of a double included.
    """

    def __init__(self, on_single=None):
        self.root = None
        self.case_levels: dict = {}
        self.on_single = on_single

    def insert(self, key) -> None:
        if self.root is None:
            self.root = _Node(key)
            return
        lineage = []
        node = self.root
        while node is not None:
            if key == node.key:
                raise ValueError(f"duplicate key {key}")
            lineage.append(node)
            node = node.left if key < node.key else node.right
        parent = lineage[-1]
        if key < parent.key:
            parent.left = _Node(key)
        else:
            parent.right = _Node(key)
        for depth in range(len(lineage) - 1, -1, -1):
            z = lineage[depth]
            _refresh(z)
            balance = _height(z.right) - _height(z.left)
            if abs(balance) < 2:
                continue
            level = depth + 1
            self.case_levels[level] = self.case_levels.get(level, 0) + 1
            if balance > 0:
                if _height(z.right.left) > _height(z.right.right):
                    z.right = _rotate_right(z.right)
                    self._single()
                top = _rotate_left(z)
            else:
                if _height(z.left.right) > _height(z.left.left):
                    z.left = _rotate_left(z.left)
                    self._single()
                top = _rotate_right(z)
            if depth == 0:
                self.root = top
            elif lineage[depth - 1].left is z:
                lineage[depth - 1].left = top
            else:
                lineage[depth - 1].right = top
            self._single()
            return  # one rebalancing restores every ancestor's height

    def _single(self) -> None:
        if self.on_single is not None:
            self.on_single(self)


def depth_counts(root) -> dict:
    counts: dict = {}
    for _, path in tree_paths(root):
        counts[len(path)] = counts.get(len(path), 0) + 1
    return counts


def sweep_depth_totals(keys) -> dict:
    """{depth: nodes at that depth}, summed over the tree states after
    every single rotation while inserting ``keys``: the node depths a
    whole-tree re-addressing sweep visits."""
    totals: dict = {}

    def add(tree):
        for depth, count in depth_counts(tree.root).items():
            totals[depth] = totals.get(depth, 0) + count

    tree = ReferenceAvl(on_single=add)
    for key in keys:
        tree.insert(key)
    return totals


def threshold_level(num_nodes: int, ratio) -> int:
    """T = max(1, round(H * ratio)) with H = ceil(log2(n + 1)), halves up."""
    height = math.ceil(math.log2(num_nodes + 1))
    return max(1, math.floor(height * Fraction(ratio) + Fraction(1, 2)))


# ----------------------------------------------------------------------
# flip oracle: before/after snapshots of every stored word
# ----------------------------------------------------------------------
def _snapshot(runner) -> tuple:
    """({slot: child node}, {node: address}) over the whole tree; the
    root pointer is slot ``None``."""
    slots = {None: runner.tree.root}
    labels = {}
    for node, _ in tree_paths(runner.tree.root):
        slots[(node, LEFT)] = node.left
        slots[(node, RIGHT)] = node.right
        labels[node] = runner.assigner.records[node].addr
    return slots, labels


def snapshot_trial(runner, keys) -> list:
    """Insert ``keys`` through ``runner`` and compare the writes handed
    to its rotation hook, and its ledger total, with a diff of every
    stored word before and after each single rotation.

    A pointer rewrite is a slot that links a different node afterwards;
    it costs the distance between the two stored words.  A relabel is a
    node whose address changed; it costs the distance between the two
    addresses.
    """
    errors = []
    state = {"before": None, "expected": 0, "rotations": 0}
    acct = runner.accounting

    def before(sub_root, kind):
        state["before"] = _snapshot(runner)

    def after(event, relabel_writes, rewrites):
        old_slots, old_labels = state["before"]
        new_slots, new_labels = _snapshot(runner)
        pointer = 0
        for slot, old_child in old_slots.items():
            new_child = new_slots.get(slot)
            if old_child is None or new_child is None or new_child is old_child:
                continue
            pointer += (old_labels[old_child] ^ new_labels[new_child]).bit_count()
        relabel = sum(
            (old_labels[node] ^ new_labels[node]).bit_count() for node in old_labels
        )
        got_pointer = sum((w.old ^ w.new).bit_count() for w in rewrites)
        got_relabel = sum((w.old ^ w.new).bit_count() for w in relabel_writes)
        state["rotations"] += 1
        if (got_pointer, got_relabel) != (pointer, relabel) and len(errors) < 5:
            errors.append(
                f"rotation {state['rotations']} ({event.kind} at level "
                f"{event.pivot_level}): recorded pointer/relabel flips "
                f"{got_pointer}/{got_relabel}, snapshot diff {pointer}/{relabel}"
            )
        if acct.count_pointer_rewrites:
            state["expected"] += pointer
        if acct.count_node_relabels:
            state["expected"] += relabel

    runner.before_rotation_hook = before
    runner.after_rotation_hook = after
    runner.run(keys)
    if state["rotations"] == 0:
        errors.append("no rotation happened, nothing was checked")
    if runner.ledger.total_flips != state["expected"]:
        errors.append(
            f"ledger total {runner.ledger.total_flips} flips, "
            f"snapshot diffs sum to {state['expected']}"
        )
    return errors


# ----------------------------------------------------------------------
# checks on the workloads' results
# ----------------------------------------------------------------------
def case_level_totals(permutations) -> dict:
    """Rebalancing inserts per level of the unbalanced node, summed over
    reference trees built from each permutation."""
    totals: dict = {}
    for keys in permutations:
        tree = ReferenceAvl()
        for key in keys:
            tree.insert(key)
        for level, count in tree.case_levels.items():
            totals[level] = totals.get(level, 0) + count
    return totals


def check_same_rotations(ledgers: dict, permutations) -> list:
    """Every scheme saw the rotations the reference tree makes on the
    permutations: rotation counting does not depend on the addresses."""
    reference = case_level_totals(permutations)
    errors = []
    for tag, ledger in ledgers.items():
        if ledger.rotations_per_level != reference:
            errors.append(
                f"{tag}: rotations per level {ledger.rotations_per_level} != "
                f"reference {reference}"
            )
    return errors


def check_flip_ordering(means: dict, epsilon: float = 0.15) -> list:
    """The paper's ordering on mean flips per rotation: hart(1/2) at
    least 50% below random and 40% below linear, and dfat-gray no worse
    than hart(1/2) plus ``epsilon`` (fewer linear levels, fewer flips)."""
    errors = []
    hart = means["hart(1/2)"]
    if not hart <= 0.5 * means["random"]:
        errors.append(f"hart(1/2) {hart:.4f} not 50% below random {means['random']:.4f}")
    if not hart <= 0.6 * means["linear"]:
        errors.append(f"hart(1/2) {hart:.4f} not 40% below linear {means['linear']:.4f}")
    if not means["dfat-gray"] <= hart + epsilon:
        errors.append(
            f"dfat-gray {means['dfat-gray']:.4f} above hart(1/2) {hart:.4f} + {epsilon}"
        )
    return errors


def check_full_pass(full: dict, incremental: dict, ratios: dict, permutations,
                    width) -> list:
    """``full`` and ``incremental`` map a scheme tag to its ledger over
    the trials on ``permutations``; ``ratios`` maps the tag to its hart
    ratio, or None for dfat-gray."""
    errors = []
    for tag, ledger in full.items():
        if dataclasses.replace(ledger, indexed_nodes=0) != dataclasses.replace(
            incremental[tag], indexed_nodes=0
        ):
            errors.append(f"{tag}: full-pass ledger differs from incremental")
    order = sorted(full, key=lambda tag: ratios[tag] or 0, reverse=True)
    counts = [full[tag].indexed_nodes for tag in order]
    if not all(a < b for a, b in zip(counts, counts[1:])):
        errors.append(f"indexed_nodes not strictly rising along {order}: {counts}")
    totals: dict = {}
    for keys in permutations:
        for depth, count in sweep_depth_totals(keys).items():
            totals[depth] = totals.get(depth, 0) + count
    n = len(permutations[0])
    for tag, ledger in full.items():
        lo = 0 if ratios[tag] is None else threshold_level(n, ratios[tag])
        expected = sum(c for depth, c in totals.items() if lo <= depth < width)
        if ledger.indexed_nodes != expected:
            errors.append(
                f"{tag}: indexed_nodes {ledger.indexed_nodes}, nodes at depths "
                f"[{lo}, {width}) over the sweeps {expected}"
            )
    return errors


def check_histogram(hist: dict, permutations) -> list:
    """Average rotations per level against the reference tree over the
    same key permutations."""
    totals = case_level_totals(permutations)
    trials = len(permutations)
    expected = {level: totals[level] / trials for level in sorted(totals)}
    if hist != expected:
        return [f"histogram {hist} != reference {expected}"]
    return []


CLI_METRICS = ("mean_flips_per_rotation", "wall_time_seconds", "overflow_fallbacks")


def check_cli_rows(records: list, cells: list, trials: int, seed: int) -> list:
    """``records`` are the CLI's CSV rows as dicts of strings; ``cells``
    are in-process results for the same grid.  Every (width, scheme,
    metric) appears once, with the run's trials and seed, and every
    value but the wall time equals the in-process one."""
    errors = []
    expected = {}
    for cell in cells:
        ratio = cell.threshold_ratio
        key = (str(cell.width), cell.scheme_tag,
               "" if ratio is None else format(float(ratio), "g"))
        ledger = cell.ledger
        expected[key + ("mean_flips_per_rotation",)] = (
            ledger.total_flips / ledger.total_rotations
        )
        expected[key + ("wall_time_seconds",)] = None
        expected[key + ("overflow_fallbacks",)] = float(ledger.overflow_fallbacks)
    seen = set()
    for record in records:
        key = (record["width"], record["scheme"], record["threshold_ratio"],
               record["metric"])
        if key in seen:
            errors.append(f"duplicate row {key}")
        seen.add(key)
        if key not in expected:
            errors.append(f"unexpected row {key}")
            continue
        if record["trials"] != str(trials) or record["seed"] != str(seed):
            errors.append(f"row {key}: trials/seed {record['trials']}/{record['seed']}")
        want = expected[key]
        if want is not None and float(record["value"]) != want:
            errors.append(f"row {key}: value {record['value']} != in-process {want!r}")
    missing = set(expected) - seen
    if missing:
        errors.append(f"{len(missing)} rows missing, e.g. {sorted(missing)[0]}")
    return errors
