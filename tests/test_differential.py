"""Differential test of the re-addressing sweep on adversarial inputs.

Random permutations rarely give sorted runs, zig-zags that force one
double rotation after another, or a pointer width barely large enough
for the tree; those push the most nodes through the spare queue and the
depth-overflow path.  Hypothesis draws such inputs and checks, after
every insert, the incremental sweep against the full pass and every
address against ranks from brute-force traversals of the complete tree.
On the same inputs the flip ledgers are checked against snapshot diffs
and against each other across counting conventions, re-addressing
modes, and key-by-key against whole-run insertion, and the tree's
one-descent insert is checked against a height-caching reference.
"""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import address_map, avl_defect, brute_force_dfat_ranks
from test_accounting import ORACLE_ACCOUNTINGS, run_with_snapshot_oracle
from hartsim.accounting import AccountingConfig
from hartsim.addressing import (
    CapacityError,
    SchemeConfig,
    SchemeKind,
    SOURCE_POSITIONAL,
    SOURCE_SPARE,
    binary_to_gray,
    position_id,
)
from hartsim.avl import LEFT, RIGHT, ROOT_LEVEL, ROOT_SLOT, AvlTree
from hartsim.harness import DECOMPOSED, FULL_PASS, INCREMENTAL, PER_CASE, TrialRunner

SCHEMES = [(SchemeKind(tag), None) for tag in ("linear", "random", "gray", "dfat-gray")] + [
    (SchemeKind.HART, Fraction(k, 4)) for k in (1, 2, 3)
]


@lru_cache(maxsize=None)
def dfat_ranks(width):
    return brute_force_dfat_ranks(width)


@lru_cache(maxsize=None)
def level_ranks(width):
    """Breadth-first rank of every position, level by level and left to
    right within a level."""
    paths = [p for depth in range(width) for p in product((LEFT, RIGHT), repeat=depth)]
    return {path: rank for rank, path in enumerate(paths)}


def smallest_width(n):
    """The fewest bits whose 2**w - 1 non-null values address n nodes."""
    return max(2, n.bit_length())


@st.composite
def insert_orders(draw, n):
    """Keys 0..n-1 as a permutation, as sorted runs, or as a zig-zag."""
    shape = draw(st.sampled_from(("permutation", "sorted runs", "zig-zag")))
    if shape == "permutation":
        return draw(st.permutations(range(n)))
    if shape == "zig-zag":  # ends inwards: each key lands between the last two
        return [k for pair in zip(range(n), range(n - 1, -1, -1)) for k in pair][:n]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=8))) if n > 1 else []
    runs = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [n])]
    runs = [run[::-1] if draw(st.booleans()) else run for run in runs]
    return [key for run in draw(st.permutations(runs)) for key in run]


def runner(kind, ratio, width, n, mode, acct=None, counting=PER_CASE):
    return TrialRunner(SchemeConfig(kind, width, ratio, seed=5), acct or AccountingConfig(),
                       reassign_mode=mode, num_nodes=n, rotation_counting=counting)


def double_rotations(keys):
    """LR/RL cases in inserting ``keys``: an insert rebalances at most
    once, and a double rotation is its only two-event rebalance."""
    tree = AvlTree()
    return sum(len(tree.insert(key)) == 2 for key in keys)


def check_records(run, width):
    assigner = run.assigner
    ranks = level_ranks(width) if assigner.config.kind is SchemeKind.GRAY else dfat_ranks(width)
    seen = set()
    for node, path in run.tree.nodes_with_paths():
        rec = assigner.records[node]
        assert rec.addr != assigner.space.null_word
        assert rec.addr not in seen, f"address {rec.addr} given twice"
        seen.add(rec.addr)
        if rec.source == SOURCE_POSITIONAL:
            assert rec.addr == binary_to_gray(ranks[path], width), path
        elif rec.source == SOURCE_SPARE:
            assert rec.bound_pos == position_id(path), path


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(1, 200), extra=st.integers(0, 4), data=st.data())
def test_incremental_sweep_matches_full_pass_and_brute_force_ranks(n, extra, data):
    keys = data.draw(insert_orders(n))
    width = smallest_width(n) + extra
    for kind, ratio in SCHEMES:
        incremental = runner(kind, ratio, width, n, INCREMENTAL)
        full = runner(kind, ratio, width, n, FULL_PASS)
        for key in keys:
            incremental.insert(key)
            full.insert(key)
            assert address_map(incremental) == address_map(full), (kind, ratio, key)
            check_records(incremental, width)
            check_records(full, width)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(width=st.integers(2, 7), data=st.data())
def test_one_node_too_many_raises_capacity_error(width, data):
    """2**width nodes overfill the 2**width - 1 non-null values."""
    keys = data.draw(insert_orders(1 << width))
    for (kind, ratio), mode in product(SCHEMES, (INCREMENTAL, FULL_PASS)):
        run = runner(kind, ratio, width, len(keys), mode)
        with pytest.raises(CapacityError):
            for key in keys:
                run.insert(key)


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(n=st.integers(1, 200), extra=st.integers(0, 4), data=st.data())
def test_flip_ledgers_agree_on_adversarial_inputs(n, extra, data):
    """Event flips equal snapshot diffs under every accounting; per-case
    and decomposed counting book the same flips, the decomposed count
    one rotation more per double; incremental and full-pass ledgers
    differ only in ``indexed_nodes``; and inserting key by key books
    exactly the ledger that one whole run does."""
    keys = data.draw(insert_orders(n))
    width = smallest_width(n) + extra
    doubles = double_rotations(keys)
    for kind, ratio in SCHEMES:
        for acct in ORACLE_ACCOUNTINGS:
            run_with_snapshot_oracle(width, kind, ratio, 5, acct, num_nodes=n, keys=keys)
        ledgers = {}
        for (a, acct), mode, counting in product(enumerate(ORACLE_ACCOUNTINGS),
                                                 (INCREMENTAL, FULL_PASS),
                                                 (PER_CASE, DECOMPOSED)):
            whole = runner(kind, ratio, width, n, mode, acct, counting)
            whole.run(keys)
            by_key = runner(kind, ratio, width, n, mode, acct, counting)
            for key in keys:
                by_key.insert(key)
            assert by_key.ledger == whole.ledger, (kind, ratio, acct, mode, counting)
            ledgers[a, mode, counting] = whole.ledger
        for a, acct in enumerate(ORACLE_ACCOUNTINGS):
            for mode in (INCREMENTAL, FULL_PASS):
                per_case, decomposed = ledgers[a, mode, PER_CASE], ledgers[a, mode, DECOMPOSED]
                assert per_case.total_flips == decomposed.total_flips, (kind, ratio, acct, mode)
                assert decomposed.total_rotations - per_case.total_rotations == doubles
            for counting in (PER_CASE, DECOMPOSED):
                inc, full = ledgers[a, INCREMENTAL, counting], ledgers[a, FULL_PASS, counting]
                assert replace(full, indexed_nodes=inc.indexed_nodes) == inc, (
                    kind, ratio, acct, counting)


class _RefNode:
    __slots__ = ("key", "left", "right", "height")

    def __init__(self, key):
        self.key, self.left, self.right, self.height = key, None, None, 1


def _height(node):
    return node.height if node is not None else 0


class ReferenceTree:
    """The AVL insert that caches heights: a descent that keeps the path,
    then a climb that refreshes each height and rebalances the first node
    at +-2.  It books each attach as (key, depth, heap id) and each single
    rotation as (kind, pivot level, pivot id, pivot key, rewired slots),
    with nodes given by their keys."""

    def __init__(self):
        self.root = None
        self.attached, self.events = [], []

    def insert(self, key):
        path, node, heap_id = [], self.root, 1
        while node is not None:
            path.append((node, heap_id))
            step = RIGHT if key > node.key else LEFT
            heap_id = 2 * heap_id + step
            node = node.right if step == RIGHT else node.left
        leaf = _RefNode(key)
        if not path:
            self.root = leaf
        elif key > path[-1][0].key:
            path[-1][0].right = leaf
        else:
            path[-1][0].left = leaf
        self.attached.append((key, len(path), heap_id))
        for depth in range(len(path) - 1, -1, -1):
            z, z_id = path[depth]
            balance = _height(z.right) - _height(z.left)
            if abs(balance) > 1:
                parent = path[depth - 1][0] if depth else None
                self._rebalance(z, balance, depth + ROOT_LEVEL, z_id, parent)
                return
            z.height = 1 + max(_height(z.left), _height(z.right))

    def _rebalance(self, z, balance, level, z_id, parent):
        heavy = RIGHT if balance > 0 else LEFT
        y = z.right if heavy == RIGHT else z.left
        outer, inner = (y.right, y.left) if heavy == RIGHT else (y.left, y.right)
        if _height(inner) > _height(outer):
            kind = "RL" if heavy == RIGHT else "LR"
            self._rotate(y, heavy, level + 1, 2 * z_id + heavy, z, kind)
        else:
            kind = "RR" if heavy == RIGHT else "LL"
        self._rotate(z, 1 - heavy, level, z_id, parent, kind)

    def _rotate(self, sub_root, direction, level, pivot_id, parent, kind):
        if direction == LEFT:
            pivot = sub_root.right
            inner = sub_root.right = pivot.left
            pivot.left = sub_root
        else:
            pivot = sub_root.left
            inner = sub_root.left = pivot.right
            pivot.right = sub_root
        for node in (sub_root, pivot):
            node.height = 1 + max(_height(node.left), _height(node.right))
        if parent is None:
            self.root, slot = pivot, ROOT_SLOT
        elif parent.left is sub_root:
            parent.left, slot = pivot, (parent.key, LEFT)
        else:
            parent.right, slot = pivot, (parent.key, RIGHT)
        rewired = [(slot, sub_root.key, pivot.key)]
        if inner is not None:
            rewired += [((sub_root.key, 1 - direction), pivot.key, inner.key),
                        ((pivot.key, direction), inner.key, sub_root.key)]
        self.events.append((kind, level, pivot_id, pivot.key, rewired))

    def preorder(self):
        """(key, path) pairs in preorder, as ``nodes_with_paths`` lists them."""
        out, stack = [], [(self.root, ())] if self.root is not None else []
        while stack:
            node, path = stack.pop()
            out.append((node.key, path))
            for step, child in ((RIGHT, node.right), (LEFT, node.left)):
                if child is not None:
                    stack.append((child, path + (step,)))
        return out


def _slot_keys(slot):
    return slot if slot == ROOT_SLOT else (slot[0].key, slot[1])


def check_insert_matches_reference(keys):
    """The tree's events, attaches and final shape equal the reference's,
    and its cached balances hold."""
    tree, reference = AvlTree(), ReferenceTree()
    attached, events = [], []

    def attach(node, depth, heap_id):
        attached.append((node.key, depth, heap_id))

    for key in keys:
        events += [
            (e.kind, e.pivot_level, e.pivot_id, e.pivot.key,
             [(_slot_keys(slot), old.key, new.key) for slot, old, new in e.rewired])
            for e in tree.insert(key, on_attach=attach)
        ]
        reference.insert(key)
    assert events == reference.events
    assert attached == reference.attached
    assert [(node.key, path) for node, path in tree.nodes_with_paths()] == reference.preorder()
    assert avl_defect(tree) is None


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1000])
@pytest.mark.parametrize("shape", ["sorted", "reversed", "zig-zag"])
def test_insert_matches_height_caching_reference_on_fixed_orders(shape, n):
    keys = list(range(n))
    if shape == "reversed":
        keys.reverse()
    elif shape == "zig-zag":
        keys = [k for pair in zip(keys, reversed(keys)) for k in pair][:n]
    check_insert_matches_reference(keys)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n=st.integers(1, 300), data=st.data())
def test_insert_matches_height_caching_reference_on_adversarial_inputs(n, data):
    check_insert_matches_reference(data.draw(insert_orders(n)))
