"""Instrumented AVL tree.

Insertion behaves like a textbook AVL tree, but every single rotation is
reported as a :class:`RotationEvent` carrying the nodes whose root path
changed and the pointer fields it rewired, named by the nodes they link.
A double rotation (LR / RL) is decomposed into two single rotations, so
it emits two events: the counting convention of every statistic
downstream.  Nodes cache ``balance`` = height(right) - height(left), so
an insert makes one descent and no climb (Knuth's single-pass insertion).

A position is an integer heap id (root 1, a child ``2*id + step``); no
path of steps is built.  A level is 1-based, the heap id's bit length:
the root is level 1, and a node at depth ``d`` is at level ``d + 1``.
"""

from __future__ import annotations

from typing import Callable, Optional

LEFT = 0
RIGHT = 1


class DuplicateKeyError(ValueError):
    """Raised when inserting a key that is already in the tree."""


class Node:
    """One tree node; ``balance`` is height(right) - height(left), cached."""

    __slots__ = ("key", "left", "right", "balance")

    def __init__(self, key: int):
        self.key = key
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.balance = 0


class RotationEvent:
    """One single rotation.

    ``kind`` names the imbalance case ("LL", "RR", "LR", "RL"); both
    halves of a double rotation carry the double's kind.  The slot of the
    rotated subtree (old and new subtree root) has level ``pivot_level``
    and heap id ``pivot_id``.  ``rewired`` lists each pointer field that
    links a different node as ``(old_child, new_child)``, the new child
    naming the one field that links it: the field above the subtree (the
    root pointer at the root), then the sub-root's and the pivot's inner
    fields unless the subtree moving between them is empty.

    ``pivot`` is the node hoisted into the slot; the subtree under it is
    exactly the set of nodes whose root path changed.  ``moved`` lists
    these nodes in preorder of that subtree, and ``len(event)`` is their
    number.  The list is walked on first read, and cached, from ``walk``:
    the tree and its size at the rotation, the pivot, the sub-root, the
    direction and the regions A, B and C.  The walk reads only the
    regions' insides, which nothing changes before the next insert into
    the tree (the second half of a double relinks only its own sub-root,
    pivot and slot above).  So ``moved`` is defined until that insert; a
    first read after it raises :class:`RuntimeError`.
    """

    __slots__ = ("kind", "pivot_level", "pivot_id", "_walk", "_moved")

    def __init__(self, kind: str, pivot_level: int, pivot_id: int,
                 walk: Optional[tuple]):
        self.kind = kind
        self.pivot_level = pivot_level
        self.pivot_id = pivot_id
        self._walk = walk
        self._moved = None

    @property
    def pivot(self) -> Node:
        return self._walk[2]

    @property
    def rewired(self) -> list:
        _, _, pivot, sub_root, _, _, inner, _ = self._walk
        if inner is None:
            return [(sub_root, pivot)]
        return [(sub_root, pivot), (pivot, inner), (inner, sub_root)]

    def __len__(self) -> int:
        return len(self.moved)

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
        # Preorder with the stack top last: pivot, z (the sub-root), A, B,
        # C after a LEFT rotation and pivot, C, z, B, A after a RIGHT one;
        # z is listed alone, as its subtrees A and B are regions.
        stack = ([far, inner, outer, sub_root] if direction == LEFT
                 else [outer, inner, sub_root, far])
        moved = [pivot]
        while stack:
            n = stack.pop()
            if n is not None:
                moved.append(n)
                if n is not sub_root:
                    stack += (n.right, n.left)
        self._moved = moved
        return moved


class AvlTree:
    """AVL tree over distinct integer keys with rotation instrumentation."""

    def __init__(self):
        self.root: Optional[Node] = None
        self.size = 0

    def __len__(self) -> int:
        return self.size

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

        ``on_attach(node, depth, heap_id)`` fires right after the new
        leaf is linked, before any rotation.  ``before_rotation(subtree_root,
        kind)`` fires before each single rotation mutates the tree;
        ``on_rotation(event)`` fires right after it.
        """
        if self.root is None:
            self.root = leaf = Node(key)
            self.size += 1
            if on_attach is not None:
                on_attach(leaf, 0, 1)
            return []

        # One descent.  ``crit`` is the deepest node on the path whose
        # balance is nonzero, else the root: no node above it changes
        # height, and every node below it is balanced before the insert.
        crit = node = self.root
        crit_parent = parent = None
        crit_id = heap_id = 1
        while True:
            if node.balance:
                crit, crit_parent, crit_id = node, parent, heap_id
            if key < node.key:
                heap_id = 2 * heap_id
                nxt = node.left
                if nxt is None:
                    node.left = leaf = Node(key)
                    break
            elif key == node.key:
                raise DuplicateKeyError(f"duplicate key {key!r}")
            else:
                heap_id = 2 * heap_id + 1
                nxt = node.right
                if nxt is None:
                    node.right = leaf = Node(key)
                    break
            parent, node = node, nxt
        self.size += 1
        if on_attach is not None:
            on_attach(leaf, heap_id.bit_length() - 1, heap_id)

        # The nodes strictly between crit and the leaf now lean toward the
        # key; crit moves one step toward it, and is rebalanced at +-2.
        # An insert rebalances at most once, restoring crit's height.
        if key < crit.key:
            balance, node = crit.balance - 1, crit.left
        else:
            balance, node = crit.balance + 1, crit.right
        while node is not leaf:
            if key < node.key:
                node.balance, node = -1, node.left
            else:
                node.balance, node = 1, node.right
        crit.balance = balance
        events: list = []
        if balance > 1 or balance < -1:
            self._rebalance(crit, balance, crit_id, crit_parent, events,
                            before_rotation, on_rotation)
        return events

    def _rebalance(self, z, balance, z_id, attach_parent, events,
                   before_rotation, on_rotation):
        heavy = RIGHT if balance > 0 else LEFT
        y = z.right if heavy == RIGHT else z.left
        if y.balance < 0 if heavy == RIGHT else y.balance > 0:
            # RL (LR): rotate the child toward the heavy side, then z away.
            kind = "RL" if heavy == RIGHT else "LR"
            self._rotate(y, heavy, 2 * z_id + heavy, z, kind, events,
                         before_rotation, on_rotation)
        else:
            kind = "RR" if heavy == RIGHT else "LL"
        self._rotate(z, 1 - heavy, z_id, attach_parent, kind, events,
                     before_rotation, on_rotation)

    def _rotate(self, sub_root, direction, heap_id, attach_parent, kind, events,
                before_rotation, on_rotation):
        """Perform one single rotation at ``sub_root`` and emit its event.

        ``direction`` is the rotation direction: LEFT hoists the right
        child, RIGHT hoists the left child.  ``sub_root`` has heap id
        ``heap_id`` and hangs from ``attach_parent``, None at the root.
        """
        if before_rotation is not None:
            before_rotation(sub_root, kind)

        # Balances follow the single-rotation rules: a is the sub-root's
        # and b the pivot's, each updated from the values before.
        if direction == LEFT:
            pivot = sub_root.right
            outer, inner, far = sub_root.left, pivot.left, pivot.right
            sub_root.right, pivot.left = inner, sub_root
            b = pivot.balance
            a = sub_root.balance - 1 - (b if b > 0 else 0)
            b += (a if a < 0 else 0) - 1
        else:
            pivot = sub_root.left
            outer, inner, far = sub_root.right, pivot.right, pivot.left
            sub_root.left, pivot.right = inner, sub_root
            b = pivot.balance
            a = sub_root.balance + 1 - (b if b < 0 else 0)
            b += (a if a > 0 else 0) + 1
        sub_root.balance, pivot.balance = a, b

        if attach_parent is None:
            self.root = pivot
        elif heap_id & 1:  # a heap id's last binary digit is its side
            attach_parent.right = pivot
        else:
            attach_parent.left = pivot

        event = RotationEvent(
            kind, heap_id.bit_length(), heap_id,
            (self, self.size, pivot, sub_root, direction, outer, inner, far),
        )
        events.append(event)
        if on_rotation is not None:
            on_rotation(event)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def nodes_with_paths(self) -> list:
        """Preorder (node, path) pairs for the whole tree."""
        out = []
        stack = [(self.root, ())] if self.root is not None else []
        while stack:
            node, path = stack.pop()
            out.append((node, path))
            if node.right is not None:
                stack.append((node.right, path + (RIGHT,)))
            if node.left is not None:
                stack.append((node.left, path + (LEFT,)))
        return out
