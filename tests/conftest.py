"""Shared oracles and helpers.

The oracles here deliberately avoid the library's own shortcuts: DFAT
ranks come from an explicit traversal of the complete tree, flip totals
come from full before/after snapshots of every stored word,
``avl_defect`` checks a tree's key order, cached heights and balance in
one in-order walk, and ``gray_to_binary`` inverts a Gray code by prefix
XOR.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hartsim.accounting import ROOT_SLOT, bit_flips  # noqa: E402
from hartsim.avl import LEFT, RIGHT, AvlTree  # noqa: E402


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


def full_snapshot(runner, acct):
    """Every stored word in the tree, keyed by slot.

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
        words[ROOT_SLOT] = (runner.tree.root, records[runner.tree.root].addr)
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
            total += bit_flips(word0, word1)
        elif owner0 is not owner1 and word0 != word1:
            total += bit_flips(word0, word1)
    return total


def avl_defect(tree):
    """First defect in in-order, as (path, reason), or None if the keys
    rise strictly (the BST order) and every node's cached height and
    balance are right.  The path is looked up only on failure."""
    stack, node, prev = [], tree.root, None
    push, pop = stack.append, stack.pop
    while stack or node is not None:
        while node is not None:
            push(node)
            node = node.left
        node = pop()
        left, right = node.left, node.right
        lh = left.height if left is not None else 0
        rh = right.height if right is not None else 0
        if prev is not None and prev.key >= node.key:
            # Of two neighbours out of order, the descendant breaks its
            # ancestor's bound: ``node`` if it is in prev's right subtree.
            bad = node if prev.right is not None else prev
            reason = f"key {bad.key} out of order"
        elif node.height != (lh if lh > rh else rh) + 1:
            bad, reason = node, f"cached height {node.height} != {max(lh, rh) + 1}"
        elif rh - lh > 1 or lh - rh > 1:
            bad, reason = node, f"balance {rh - lh}"
        else:
            prev, node = node, right
            continue
        return next(p for n, p in tree.nodes_with_paths() if n is bad), reason
    return None


def gray_to_binary(gray):
    """Inverse of ``binary_to_gray``: the prefix XOR of the code."""
    value = 0
    while gray:
        value ^= gray
        gray >>= 1
    return value


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
