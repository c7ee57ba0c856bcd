"""Shared oracles and helpers.

The oracles here deliberately avoid the library's own shortcuts: DFAT
ranks come from an explicit traversal of the complete tree, flip totals
come from full before/after snapshots of every stored word,
``avl_defect`` checks a tree's key order and cached balance factors
against heights it recomputes in one walk, ``balanced_order`` lists
the keys of a balanced tree in the order that grows it with no
rotation, ``binary_to_gray`` and ``gray_to_binary`` encode and
invert a Gray code, ``heap_id_of`` builds a path's heap id one step
at a time, and ``path_of`` reads a path back off a heap id's binary
digits.
"""

import math
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hartsim.avl import LEFT, RIGHT, AvlTree  # noqa: E402

ROOT_KEY = ("root",)  # snapshot key of the tree's root pointer


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_tests():
    """Fails the run if a test leaves a child process, running or
    unreaped: a fan-out that leaks a worker shows here."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the tests (waitpid gave pid {pid})")


def brute_force_dfat_ranks(depth_capacity):
    """Rank of every position in the complete tree via an actual
    alternating-order preorder traversal (the independent oracle for
    the closed-form index)."""
    ranks = {}
    counter = [0]

    def visit(path):
        if len(path) >= depth_capacity:
            return
        ranks[path] = counter[0]
        counter[0] += 1
        depth = len(path)
        first, second = (LEFT, RIGHT) if depth % 2 == 0 else (RIGHT, LEFT)
        visit(path + (first,))
        visit(path + (second,))

    visit(())
    return ranks


def heap_id_of(path):
    """1-based heap id of a path of LEFT/RIGHT steps, built one step at
    a time: 1 for the root, 2*id + (step is RIGHT) for a child."""
    heap_id = 1
    for step in path:
        heap_id = 2 * heap_id + (step == RIGHT)
    return heap_id


def path_of(heap_id):
    """The path of LEFT/RIGHT steps to a heap id: its binary digits
    after the leading 1, a 1 being a RIGHT step."""
    return tuple(RIGHT if digit == "1" else LEFT for digit in bin(heap_id)[3:])


def full_snapshot(runner, acct):
    """Every stored word in the tree, keyed by slot: (owner, side) for
    a child pointer, :data:`ROOT_KEY` for the root pointer, ("label",
    node) for a node's address.

    Pointer slots record (child identity, stored word) so the diff can
    distinguish structural rewrites from relabel propagation; label
    slots record the node's own address word.
    """
    words = {}
    records = runner.assigner.records
    entries = runner.tree.nodes_with_paths()
    for node, _ in entries:
        if acct.count_pointer_rewrites:
            if node.left is not None:
                words[(node, LEFT)] = (node.left, records[node.left].addr)
            if node.right is not None:
                words[(node, RIGHT)] = (node.right, records[node.right].addr)
        if acct.count_node_relabels:
            words[("label", node)] = (node, records[node].addr)
    if entries and acct.count_pointer_rewrites:
        words[ROOT_KEY] = (runner.tree.root, records[runner.tree.root].addr)
    return words


def snapshot_flip_diff(before, after):
    """Hamming sum over the two snapshots.

    Pointer slots count only when the linked child changed; label slots
    count whenever the word changed.  Slots that appear or vanish are
    structural and cost nothing.
    """
    total = 0
    for slot in before.keys() & after.keys():
        owner0, word0 = before[slot]
        owner1, word1 = after[slot]
        if slot[0] == "label":
            total += (word0 ^ word1).bit_count()
        elif owner0 is not owner1 and word0 != word1:
            total += (word0 ^ word1).bit_count()
    return total


class _Defect(Exception):
    """The first defect ``avl_defect``'s walk meets: (node, reason)."""


def avl_defect(tree):
    """First defect as (path, reason), or None if the keys rise strictly
    in order (the BST order) and every node's cached ``balance`` equals
    height(right) - height(left), with |balance| <= 1.  One recursive
    walk, as deep as the tree, checks each key against the bounds its
    ancestors set on the way down and recomputes subtree heights on the
    way up.  The path is looked up only on failure."""
    def height(node, low, high):
        key, left, right = node.key, node.left, node.right
        if not low < key < high:
            raise _Defect(node, f"key {key} out of order")
        if left is None and right is None:  # a leaf, as half the nodes are
            if node.balance:
                raise _Defect(node, f"cached balance {node.balance} != 0")
            return 1
        lh = height(left, low, key) if left is not None else 0
        rh = height(right, key, high) if right is not None else 0
        balance = rh - lh
        if node.balance != balance:
            raise _Defect(node, f"cached balance {node.balance} != {balance}")
        if balance > 1 or balance < -1:
            raise _Defect(node, f"out of balance: {balance}")
        return (rh if balance > 0 else lh) + 1

    try:
        if tree.root is not None:
            height(tree.root, -math.inf, math.inf)
    except _Defect as defect:
        bad, reason = defect.args
        return next(p for n, p in tree.nodes_with_paths() if n is bad), reason
    return None


def tree_height(tree):
    """Height of the tree (a leaf is 1), read down the taller side at
    each node as the cached balances say; exact on a tree that
    ``avl_defect`` passes."""
    height, node = 0, tree.root
    while node is not None:
        height += 1
        node = node.right if node.balance > 0 else node.left
    return height


def binary_to_gray(value):
    """Gray code of ``value``: value XOR (value >> 1)."""
    return value ^ (value >> 1)


def gray_to_binary(gray):
    """Inverse of ``binary_to_gray``: the prefix XOR of the code."""
    value = 0
    while gray:
        value ^= gray
        gray >>= 1
    return value


def balanced_order(n):
    """Keys 0..n-1 breadth first by midpoint splitting: each key range's
    midpoint, then its halves', so inserting them never rotates."""
    order, ranges = [], [(0, n)]
    for lo, hi in ranges:
        if lo < hi:
            mid = (lo + hi) // 2
            order.append(mid)
            ranges += ((lo, mid), (mid + 1, hi))
    return order


def build_tree(keys):
    tree = AvlTree()
    events = []
    for key in keys:
        events.extend(tree.insert(key))
    return tree, events


def address_map(runner):
    """key -> address for every node currently in the tree."""
    records = runner.assigner.records
    return {
        node.key: records[node].addr for node, _ in runner.tree.nodes_with_paths()
    }
