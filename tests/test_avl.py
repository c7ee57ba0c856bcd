import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import avl_defect, build_tree, tree_height
from hartsim.avl import (
    LEFT,
    RIGHT,
    ROOT_LEVEL,
    ROOT_SLOT,
    AvlTree,
    DuplicateKeyError,
    Node,
)
from hartsim.addressing import position_id
from hartsim.harness import gen_dataset


def test_ascending_insert_emits_one_rr_at_root():
    tree, events = build_tree([1, 2, 3])
    assert [(e.kind, e.pivot_level) for e in events] == [("RR", 1)]
    assert tree.root.key == 2
    assert tree.root.left.key == 1
    assert tree.root.right.key == 3
    # every node of the rotated subtree moved
    (event,) = events
    assert len(event.moved) == 3
    assert all(old != new for _, old, new in event.moved)


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

    def check(event):
        # runs right after each single rotation, before the next one
        prefix = event.pivot_path
        depth = len(prefix)
        assert event.moved, "rotation with empty moved set"
        for _, old, new in event.moved:
            assert old[:depth] == prefix
            assert new[:depth] == prefix
            assert old != new
        # the moved set is exactly the rearranged subtree
        subtree = _node_at(tree, prefix)
        assert len(event.moved) == len(list(_iter_subtree(subtree)))
        assert {n for n, _, _ in event.moved} == set(_iter_subtree(subtree))

    for key in gen_dataset(200, 5):
        tree.insert(key, on_rotation=check)


def _node_at(tree, path):
    return next(node for node, p in tree.nodes_with_paths() if p == path)


def _slots(tree):
    """{slot: child or None} for every pointer slot of the tree."""
    slots = {ROOT_SLOT: tree.root}
    for node, _ in tree.nodes_with_paths():
        slots[(node, LEFT)] = node.left
        slots[(node, RIGHT)] = node.right
    return slots


def test_moved_set_and_rewired_slots_match_tree_snapshots():
    """Whole-tree snapshots around every single rotation: ``moved`` is
    exactly the rearranged subtree under ``pivot``, with its paths before
    and after, in the preorder ``nodes_with_paths`` gives; ``rewired`` is
    exactly the set of slots whose non-None child changed.  Positions
    reported as integers match the paths: ``on_attach`` gets the new
    leaf's depth and heap id, and ``pivot_path`` follows from
    ``pivot_level`` and ``pivot_id``."""
    state = {}
    seen = {"LEFT": 0, "RIGHT": 0, "one slot": 0, "three slots": 0, "attached": 0}

    def attach(node, depth, heap_id):
        # the leaf is linked and no rotation has run yet
        path = dict(tree.nodes_with_paths())[node]
        assert (depth, heap_id) == (len(path), position_id(path))
        seen["attached"] += 1

    def before(sub_root, kind):
        state["paths"] = dict(tree.nodes_with_paths())
        state["slots"] = _slots(tree)

    def after(event):
        old_paths = state["paths"]
        new_paths = dict(tree.nodes_with_paths())
        prefix = event.pivot_path
        assert len(prefix) == event.pivot_level - ROOT_LEVEL
        assert position_id(prefix) == event.pivot_id
        expected = [
            (node, old_paths[node], path)
            for node, path in tree.nodes_with_paths()
            if path[:len(prefix)] == prefix
        ]
        assert event.pivot is _node_at(tree, prefix)
        assert event.moved == expected
        changed = {n for n, path in new_paths.items() if old_paths[n] != path}
        assert changed == {node for node, _, _ in event.moved}

        old_slots, new_slots = state["slots"], _slots(tree)
        rewired = {
            (slot, old_slots[slot], new_slots[slot])
            for slot in old_slots.keys() & new_slots.keys()
            if old_slots[slot] is not None
            and new_slots[slot] is not None
            and old_slots[slot] is not new_slots[slot]
        }
        assert len(event.rewired) == len(rewired)
        assert set(event.rewired) == rewired
        pivot = event.moved[0][0]
        sub_root = next(n for n, old, _ in event.moved if old == prefix)
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
    return [(node.key, old, new) for node, old, new in event.moved]


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
