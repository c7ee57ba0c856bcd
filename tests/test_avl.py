import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT_KEY, avl_defect, build_tree, heap_id_of, path_of, tree_height
from hartsim.avl import (
    LEFT,
    RIGHT,
    AvlTree,
    DuplicateKeyError,
    Node,
)
from hartsim.harness import gen_dataset


def test_ascending_insert_emits_one_rr_at_root():
    tree, events = build_tree([1, 2])
    assert events == []
    snapshots = []
    events = tree.insert(3, before_rotation=lambda *_: snapshots.append(_paths(tree)))
    assert [(e.kind, e.pivot_level) for e in events] == [("RR", 1)]
    assert tree.root.key == 2
    assert tree.root.left.key == 1
    assert tree.root.right.key == 3
    # every node of the rotated subtree moved
    (event,) = events
    (old_paths,) = snapshots
    new_paths = _paths(tree)
    assert len(event.moved) == 3
    assert all(old_paths[node] != new_paths[node] for node in event.moved)


def test_balanced_insert_never_rotates():
    tree, events = build_tree([2, 1, 3])
    assert events == []
    assert avl_defect(tree) is None


def test_lr_case_decomposes_into_two_events():
    tree, events = build_tree([3, 1, 2])
    assert [e.kind for e in events] == ["LR", "LR"]
    assert [e.pivot_level for e in events] == [2, 1]
    assert avl_defect(tree) is None  # so in-order is sorted order
    assert sorted(node.key for node, _ in tree.nodes_with_paths()) == [1, 2, 3]


def test_rl_case_decomposes_into_two_events():
    _, events = build_tree([1, 3, 2])
    assert [e.kind for e in events] == ["RL", "RL"]
    assert [e.pivot_level for e in events] == [2, 1]


def test_duplicate_key_rejected():
    tree, _ = build_tree([5, 2, 8])
    with pytest.raises(DuplicateKeyError):
        tree.insert(2)
    assert len(tree) == 3


def test_validate_empty_tree_ok():
    assert avl_defect(AvlTree()) is None


def test_validate_reports_corrupted_height():
    tree, _ = build_tree([4, 2, 6, 1, 3, 5, 7])
    tree.root.left.left.balance = 1  # a leaf's subtrees are both empty
    assert avl_defect(tree) == ((LEFT, LEFT), "cached balance 1 != 0")


def test_validate_reports_bst_violation():
    tree, _ = build_tree([4, 2, 6])
    tree.root.left.key = 40  # break order by hand
    violation = avl_defect(tree)
    assert violation is not None
    path, _ = violation
    assert path == (LEFT,)


def test_validate_reports_imbalance():
    # Hand-built left chain: 3 -> 2 -> 1 with balances true to its shape.
    a, b, c = Node(3), Node(2), Node(1)
    a.left, b.left = b, c
    a.balance, b.balance = -2, -1
    tree = AvlTree()
    tree.root = a
    tree.size = 3
    assert avl_defect(tree) == ((), "out of balance: -2")


def test_moved_nodes_stay_under_pivot_slot():
    tree = AvlTree()
    state = {}

    def before(sub_root, kind):
        state["paths"] = _paths(tree)

    def check(event):
        # runs right after each single rotation, before the next one
        prefix = path_of(event.pivot_id)
        depth = len(prefix)
        old_paths, new_paths = state["paths"], _paths(tree)
        assert event.moved, "rotation with empty moved set"
        for node in event.moved:
            old, new = old_paths[node], new_paths[node]
            assert old[:depth] == prefix
            assert new[:depth] == prefix
            assert old != new
        # the moved set is exactly the rearranged subtree
        subtree = _node_at(tree, prefix)
        assert len(event.moved) == len(list(_iter_subtree(subtree)))
        assert set(event.moved) == set(_iter_subtree(subtree))

    for key in gen_dataset(200, 5):
        tree.insert(key, before_rotation=before, on_rotation=check)


def _paths(tree):
    """{node: path from the root} for every node of the tree."""
    return dict(tree.nodes_with_paths())


def _node_at(tree, path):
    return next(node for node, p in tree.nodes_with_paths() if p == path)


def _slots(tree):
    """{slot: child or None} for every pointer slot of the tree."""
    slots = {ROOT_KEY: tree.root}
    for node, _ in tree.nodes_with_paths():
        slots[(node, LEFT)] = node.left
        slots[(node, RIGHT)] = node.right
    return slots


def test_moved_set_and_rewired_slots_match_tree_snapshots():
    """Whole-tree snapshots around every single rotation: the nodes whose
    root path changed are exactly ``moved``, the rearranged subtree under
    ``pivot`` in the preorder ``nodes_with_paths`` gives, each at its
    snapshot paths before and after; ``rewired`` is exactly the
    (old child, new child) pairs of the slots whose non-None child
    changed, the slot above the subtree first.  Positions reported as integers
    match the paths: ``on_attach`` gets the new leaf's depth and heap id,
    and ``pivot_level`` and ``pivot_id`` give the slot's path, which
    held the sub-root before and holds the pivot after."""
    state = {}
    seen = {"LEFT": 0, "RIGHT": 0, "one slot": 0, "three slots": 0, "attached": 0}

    def attach(node, depth, heap_id):
        # the leaf is linked and no rotation has run yet
        path = _paths(tree)[node]
        assert (depth, heap_id) == (len(path), heap_id_of(path))
        seen["attached"] += 1

    def before(sub_root, kind):
        state["paths"] = _paths(tree)
        state["slots"] = _slots(tree)

    def after(event):
        old_paths = state["paths"]
        new_paths = _paths(tree)
        prefix = path_of(event.pivot_id)
        assert len(prefix) == event.pivot_level - 1
        assert heap_id_of(prefix) == event.pivot_id
        expected = [
            (node, old_paths[node], path)
            for node, path in tree.nodes_with_paths()
            if path[:len(prefix)] == prefix
        ]
        assert event.pivot is _node_at(tree, prefix)
        assert [(node, old_paths[node], new_paths[node]) for node in event.moved] == expected
        changed = {n for n, path in new_paths.items() if old_paths[n] != path}
        assert changed == set(event.moved)

        old_slots, new_slots = state["slots"], _slots(tree)
        rewired = {
            (old_slots[slot], new_slots[slot])
            for slot in old_slots.keys() & new_slots.keys()
            if old_slots[slot] is not None
            and new_slots[slot] is not None
            and old_slots[slot] is not new_slots[slot]
        }
        assert len(event.rewired) == len(rewired)
        assert set(event.rewired) == rewired
        pivot = event.moved[0]
        sub_root = next(n for n in event.moved if old_paths[n] == prefix)
        assert event.rewired[0] == (sub_root, pivot)
        seen["LEFT" if pivot.left is sub_root else "RIGHT"] += 1
        seen["one slot" if len(rewired) == 1 else "three slots"] += 1

    for seed in range(3):
        tree = AvlTree()
        for key in gen_dataset(300, seed):
            tree.insert(key, on_attach=attach, before_rotation=before,
                        on_rotation=after)
    assert all(seen.values()), seen
    assert seen["attached"] == 3 * 300


def _moved_keys(event):
    return [node.key for node in event.moved]


def test_moved_read_after_insert_matches_read_at_rotation():
    """``moved`` is walked on first read.  Read once ``insert`` has
    returned, after both halves of a double, it equals the list read
    inside ``on_rotation`` on a twin tree built from the same keys."""
    doubles = 0
    for seed in range(3):
        at_rotation, after_insert = AvlTree(), AvlTree()
        for key in gen_dataset(300, seed):
            inside = []
            at_rotation.insert(key, on_rotation=lambda e: inside.append(_moved_keys(e)))
            events = after_insert.insert(key)
            assert [_moved_keys(e) for e in events] == inside
            doubles += len(events) == 2
    assert doubles


def test_moved_first_read_after_next_insert_raises():
    tree, _ = build_tree([1, 2])
    (stale,) = tree.insert(3)  # RR at the root
    tree.insert(4)
    with pytest.raises(RuntimeError, match="next insert"):
        stale.moved
    (read,) = tree.insert(5)  # RR at node 3
    walked = read.moved
    tree.insert(6)
    assert read.moved is walked  # a list read in time stays readable


def test_len_is_the_moved_set_size_and_raises_like_moved():
    tree, _ = build_tree([1, 2])
    (event,) = tree.insert(3)  # RR at the root
    assert len(event) == len(event.moved) == 3
    assert tree.insert(4) == []
    (deep,) = tree.insert(5)  # RR at node 3
    assert len(deep) == len(deep.moved) == 3
    (stale,) = tree.insert(6)  # RR at the root: the whole tree moves
    tree.insert(7)
    with pytest.raises(RuntimeError, match="next insert"):
        len(stale)
    with pytest.raises(RuntimeError, match="next insert"):
        stale.moved


def _iter_subtree(node):
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        if n.left is not None:
            stack.append(n.left)
        if n.right is not None:
            stack.append(n.right)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(80))))
def test_random_builds_keep_all_invariants(keys):
    tree = AvlTree()
    for key in keys:
        events = tree.insert(key)
        assert len(events) <= 2
    assert avl_defect(tree) is None  # so in-order is sorted order
    assert sorted(node.key for node, _ in tree.nodes_with_paths()) == sorted(keys)
    assert tree_height(tree) <= 1.4405 * math.log2(len(keys) + 2)
    assert len(tree) == len(keys)


def test_height_bound_on_larger_seeded_builds():
    for seed in range(5):
        n = 1000
        tree = AvlTree()
        for key in gen_dataset(n, seed):
            tree.insert(key)
        assert avl_defect(tree) is None
        assert tree_height(tree) <= 1.4405 * math.log2(n + 2)


def test_len_counts_the_inserted_keys():
    tree, _ = build_tree([5, 1, 9])
    assert len(tree) == 3
