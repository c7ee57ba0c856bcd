"""Instrumented AVL tree.

Insertion behaves like a textbook AVL tree, but every single rotation is
reported as a :class:`RotationEvent` carrying the set of nodes whose
root path changed and the pointer slots it rewired.  A double rotation
(LR / RL) is decomposed into two single rotations and therefore emits
two events; this is the counting convention used by every statistic
downstream.

Levels are 1-based: the root sits at level ``ROOT_LEVEL`` and a node at
depth ``d`` sits at level ``d + ROOT_LEVEL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

LEFT = 0
RIGHT = 1

#: Level assigned to the root node.  Kept as a module constant so the
#: numbering convention is adjustable in one place.
ROOT_LEVEL = 1

Path = tuple  # tuple of LEFT/RIGHT steps from the root
ROOT_SLOT = ("root",)  # slot name of the tree's root pointer


class DuplicateKeyError(ValueError):
    """Raised when inserting a key that is already in the tree."""


class KeyNotFoundError(KeyError):
    """Raised when looking up a key that is not in the tree."""


class Node:
    """One tree node; ``height`` is cached (leaf = 1)."""

    __slots__ = ("key", "left", "right", "height")

    def __init__(self, key: int):
        self.key = key
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.height = 1

    def __repr__(self):  # pragma: no cover
        return f"<Node key={self.key} h={self.height}>"


class RotationEvent:
    """One single rotation.

    ``kind`` names the imbalance case ("LL", "RR", "LR", "RL"); both
    halves of a double rotation carry the double's kind.  ``pivot_path``
    is the path of the rotated subtree's slot (old and new subtree root).
    ``rewired`` lists the pointer slots that link a different node, as
    ``(slot, old_child, new_child)``: the slot above the subtree, then
    the sub-root's and the pivot's inner fields unless the subtree
    moving between them is empty.  A slot is ``(owner_node, side)``, or
    :data:`ROOT_SLOT` for the tree's root pointer.

    ``moved`` lists every node whose root path changed, as ``(node,
    old_path, new_path)`` tuples in preorder of the rearranged subtree.
    It is walked on first read, and cached, from ``walk``: the tree and
    its size at the rotation, the pivot, the sub-root, the direction and
    the regions A, B and C.  The walk reads only the pivot, the sub-root
    and the regions' insides, which nothing changes before the next
    insert into the tree (the second half of a double relinks only its
    own sub-root, pivot and slot above).  So ``moved`` is defined until
    that insert; a first read after it raises :class:`RuntimeError`.
    """

    __slots__ = ("kind", "pivot_level", "pivot_path", "rewired", "_walk", "_moved")

    def __init__(self, kind: str, pivot_level: int, pivot_path: Path,
                 rewired: list, walk: Optional[tuple]):
        self.kind = kind
        self.pivot_level = pivot_level
        self.pivot_path = pivot_path
        self.rewired = rewired
        self._walk = walk
        self._moved = None

    @property
    def moved(self) -> list:
        if self._moved is not None:
            return self._moved
        tree, size, pivot, sub_root, direction, outer, inner, far = self._walk
        if tree.size != size:
            raise RuntimeError(
                "RotationEvent.moved first read after a later insert into "
                "its tree; it is defined only until the next insert"
            )
        # One preorder walk of the new subtree.  Each region's old path
        # follows from where it came from: the pivot and the sub-root z
        # trade places, A (z's outer subtree) gains a step, B (the inner
        # subtree) swaps one and C (the pivot's outer subtree) loses one.
        path = self.pivot_path
        hoist = RIGHT if direction == LEFT else LEFT
        up, down = path + (hoist,), path + (direction,)
        z = (sub_root, path, down)
        a = (outer, down, down + (direction,))
        b = (inner, up + (direction,), down + (hoist,))
        c = (far, up + (hoist,), up)
        # Stack top last: the new preorder is pivot, z, A, B, C after a
        # LEFT rotation and pivot, C, z, B, A after a RIGHT one.
        stack = [c, b, a, z] if direction == LEFT else [a, b, z, c]
        moved = [(pivot, up, path)]
        while stack:
            item = stack.pop()
            n, old, new = item
            if n is None:
                continue
            moved.append(item)
            if n is not sub_root:  # z's subtrees are regions of their own
                if n.right is not None:
                    stack.append((n.right, old + (RIGHT,), new + (RIGHT,)))
                if n.left is not None:
                    stack.append((n.left, old + (LEFT,), new + (LEFT,)))
        self._moved = moved
        return moved


@dataclass
class Violation:
    """First structural defect found by :meth:`AvlTree.validate`."""

    path: Path
    reason: str


def _subtree_paths(node: Node, prefix: Path) -> list:
    """Preorder list of (node, absolute path) for the subtree at ``node``."""
    out = []
    stack = [(node, prefix)]
    push = stack.append
    pop = stack.pop
    while stack:
        n, p = pop()
        out.append((n, p))
        if n.right is not None:
            push((n.right, p + (RIGHT,)))
        if n.left is not None:
            push((n.left, p + (LEFT,)))
    return out


class AvlTree:
    """AVL tree over distinct integer keys with rotation instrumentation."""

    def __init__(self):
        self.root: Optional[Node] = None
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def __contains__(self, key: int) -> bool:
        node = self.root
        while node is not None:
            if key == node.key:
                return True
            node = node.left if key < node.key else node.right
        return False

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(
        self,
        key: int,
        on_attach: Optional[Callable] = None,
        before_rotation: Optional[Callable] = None,
        on_rotation: Optional[Callable] = None,
    ) -> list:
        """Insert ``key`` and rebalance; returns the rotation events.

        ``on_attach(node, path)`` fires right after the new leaf is
        linked, before any rotation.  ``before_rotation(subtree_root,
        kind)`` fires before each single rotation mutates the tree;
        ``on_rotation(event)`` fires right after it.
        """
        if self.root is None:
            self.root = leaf = Node(key)
            self.size += 1
            if on_attach is not None:
                on_attach(leaf, ())
            return []

        lineage = []  # nodes along the descent
        steps = []  # the step taken from each of them
        node = self.root
        while True:
            if key == node.key:
                raise DuplicateKeyError(f"duplicate key {key!r}")
            lineage.append(node)
            if key < node.key:
                steps.append(LEFT)
                nxt = node.left
                if nxt is None:
                    node.left = leaf = Node(key)
                    break
            else:
                steps.append(RIGHT)
                nxt = node.right
                if nxt is None:
                    node.right = leaf = Node(key)
                    break
            node = nxt
        self.size += 1
        if on_attach is not None:
            on_attach(leaf, tuple(steps))

        # Climb back up refreshing cached heights.  The first ancestor
        # whose balance reaches +-2 is rebalanced; an insert needs at
        # most one rebalancing, after which subtree heights are back to
        # their pre-insert values and the climb can stop.
        events: list = []
        for i in range(len(lineage) - 1, -1, -1):
            parent = lineage[i]
            left, right = parent.left, parent.right
            lh = left.height if left is not None else 0
            rh = right.height if right is not None else 0
            balance = rh - lh
            if balance > 1 or balance < -1:
                if i:
                    attach_parent, attach_side = lineage[i - 1], steps[i - 1]
                else:
                    attach_parent, attach_side = None, None
                self._rebalance(
                    parent, balance, tuple(steps[:i]), attach_parent,
                    attach_side, events, before_rotation, on_rotation,
                )
                break
            new_height = (lh if lh > rh else rh) + 1
            if parent.height == new_height:
                break
            parent.height = new_height
        return events

    def _rebalance(self, z, balance, z_path, attach_parent, attach_side,
                   events, before_rotation, on_rotation):
        if balance > 0:
            y = z.right
            ylh = y.left.height if y.left is not None else 0
            yrh = y.right.height if y.right is not None else 0
            if yrh >= ylh:
                self._rotate(z, LEFT, z_path, attach_parent, attach_side,
                             "RR", events, before_rotation, on_rotation)
            else:
                # RL: right-rotate the child, then left-rotate the pivot.
                self._rotate(y, RIGHT, z_path + (RIGHT,), z, RIGHT,
                             "RL", events, before_rotation, on_rotation)
                self._rotate(z, LEFT, z_path, attach_parent, attach_side,
                             "RL", events, before_rotation, on_rotation)
        else:
            y = z.left
            ylh = y.left.height if y.left is not None else 0
            yrh = y.right.height if y.right is not None else 0
            if ylh >= yrh:
                self._rotate(z, RIGHT, z_path, attach_parent, attach_side,
                             "LL", events, before_rotation, on_rotation)
            else:
                self._rotate(y, LEFT, z_path + (LEFT,), z, LEFT,
                             "LR", events, before_rotation, on_rotation)
                self._rotate(z, RIGHT, z_path, attach_parent, attach_side,
                             "LR", events, before_rotation, on_rotation)

    def _rotate(self, sub_root, direction, path, attach_parent, attach_side,
                kind, events, before_rotation, on_rotation):
        """Perform one single rotation at ``sub_root`` and emit its event.

        ``direction`` is the rotation direction: LEFT hoists the right
        child, RIGHT hoists the left child.
        """
        if before_rotation is not None:
            before_rotation(sub_root, kind)

        if direction == LEFT:
            hoist, pivot = RIGHT, sub_root.right
            outer, inner, far = sub_root.left, pivot.left, pivot.right
            sub_root.right, pivot.left = inner, sub_root
        else:
            hoist, pivot = LEFT, sub_root.left
            outer, inner, far = sub_root.right, pivot.right, pivot.left
            sub_root.left, pivot.right = inner, sub_root

        for n in (sub_root, pivot):  # order matters: sub_root is now below
            lh = n.left.height if n.left is not None else 0
            rh = n.right.height if n.right is not None else 0
            n.height = (lh if lh > rh else rh) + 1

        if attach_parent is None:
            self.root = pivot
        elif attach_side == LEFT:
            attach_parent.left = pivot
        else:
            attach_parent.right = pivot
        above = ROOT_SLOT if attach_parent is None else (attach_parent, attach_side)
        rewired = [(above, sub_root, pivot)]
        if inner is not None:
            rewired += [((sub_root, hoist), pivot, inner),
                        ((pivot, direction), inner, sub_root)]

        event = RotationEvent(
            kind, len(path) + ROOT_LEVEL, path, rewired,
            (self, self.size, pivot, sub_root, direction, outer, inner, far),
        )
        events.append(event)
        if on_rotation is not None:
            on_rotation(event)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def path_of(self, key: int) -> Path:
        """Left/Right step sequence from the root to ``key``."""
        steps = []
        node = self.root
        while node is not None:
            if key == node.key:
                return tuple(steps)
            if key < node.key:
                steps.append(LEFT)
                node = node.left
            else:
                steps.append(RIGHT)
                node = node.right
        raise KeyNotFoundError(key)

    def node_at(self, path: Path) -> Node:
        node = self.root
        for step in path:
            node = node.left if step == LEFT else node.right
        return node

    def height(self) -> int:
        return self.root.height if self.root is not None else 0

    def inorder_keys(self) -> Iterator[int]:
        stack = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key
            node = node.right

    def nodes_with_paths(self) -> list:
        """Preorder (node, path) pairs for the whole tree."""
        if self.root is None:
            return []
        return _subtree_paths(self.root, ())

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> Optional[Violation]:
        """Check BST order, cached heights and AVL balance everywhere.

        Returns the first violation found, or None if the tree is sound.
        The hot loop avoids building paths; the offending node's path is
        reconstructed only when a defect is actually found.
        """
        root = self.root
        if root is None:
            return None
        stack = [(root, None, None)]
        push = stack.append
        pop = stack.pop
        while stack:
            node, lo, hi = pop()
            key = node.key
            if lo is not None and key <= lo:
                return Violation(self._locate(node), f"key {key} <= bound {lo}")
            if hi is not None and key >= hi:
                return Violation(self._locate(node), f"key {key} >= bound {hi}")
            left = node.left
            right = node.right
            lh = left.height if left is not None else 0
            rh = right.height if right is not None else 0
            if node.height != (lh if lh > rh else rh) + 1:
                return Violation(
                    self._locate(node),
                    f"cached height {node.height} != {max(lh, rh) + 1}",
                )
            if rh - lh > 1 or lh - rh > 1:
                return Violation(self._locate(node), f"balance {rh - lh}")
            if left is not None:
                push((left, lo, key))
            if right is not None:
                push((right, key, hi))
        return None

    def _locate(self, target: Node) -> Path:
        """Path to a node object, by identity (order may be corrupt)."""
        stack = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            if node is target:
                return path
            if node.left is not None:
                stack.append((node.left, path + (LEFT,)))
            if node.right is not None:
                stack.append((node.right, path + (RIGHT,)))
        raise KeyNotFoundError("node not reachable from root")
