"""Instrumented AVL tree.

Insertion behaves like a textbook AVL tree, but every single rotation is
reported as a :class:`RotationEvent` carrying the set of nodes whose
root path changed and the pointer slots it rewired.  A double rotation
(LR / RL) is decomposed into two single rotations and therefore emits
two events; this is the counting convention used by every statistic
downstream.  Nodes cache ``balance`` = height(right) - height(left), so
an insert makes one descent and no climb (Knuth's single-pass insertion).

Levels are 1-based: the root sits at level ``ROOT_LEVEL`` and a node at
depth ``d`` sits at level ``d + ROOT_LEVEL``.  Positions are integers on
the insert path: a depth and a heap id (root 1, a child ``2*id + step``).
"""

from __future__ import annotations

from typing import Callable, Optional

LEFT = 0
RIGHT = 1

#: Level assigned to the root node.  Kept as a module constant so the
#: numbering convention is adjustable in one place.
ROOT_LEVEL = 1

Path = tuple  # tuple of LEFT/RIGHT steps from the root
ROOT_SLOT = ("root",)  # slot name of the tree's root pointer
_DIGIT_STEPS = bytes.maketrans(b"01", bytes((LEFT, RIGHT)))  # heap-id digit -> step


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
    and heap id ``pivot_id``; ``pivot_path`` is derived from the two.
    ``rewired`` lists the pointer slots that link a different node, as
    ``(slot, old_child, new_child)``: the slot above the subtree, then
    the sub-root's and the pivot's inner fields unless the subtree
    moving between them is empty.  A slot is ``(owner_node, side)``, or
    :data:`ROOT_SLOT` for the tree's root pointer.

    ``pivot`` is the node hoisted into the slot; the subtree under it is
    exactly the set of nodes whose root path changed.  ``moved`` lists
    them as ``(node, old_path, new_path)`` tuples in preorder of that
    subtree, and ``len(event)`` is their number.  The list is walked on
    first read, and cached, from ``walk``: the tree and its size at the
    rotation, the pivot, the sub-root, the direction and the regions A,
    B and C.  The walk reads only the pivot, the sub-root and the
    regions' insides, which nothing changes before the next insert into
    the tree (the second half of a double relinks only its own sub-root,
    pivot and slot above).  So ``moved`` is defined until that insert; a
    first read after it raises :class:`RuntimeError`.
    """

    __slots__ = ("kind", "pivot_level", "pivot_id", "rewired", "_walk", "_moved")

    def __init__(self, kind: str, pivot_level: int, pivot_id: int,
                 rewired: list, walk: Optional[tuple]):
        self.kind = kind
        self.pivot_level = pivot_level
        self.pivot_id = pivot_id
        self.rewired = rewired
        self._walk = walk
        self._moved = None

    @property
    def pivot_path(self) -> Path:
        """The binary digits of ``pivot_id`` after its leading 1, as steps."""
        return tuple(format(self.pivot_id, "b")[1:].encode().translate(_DIGIT_STEPS))

    @property
    def pivot(self) -> Node:
        return self._walk[2]

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
            # crit_id's last binary digit is the side crit hangs from.
            self._rebalance(
                crit, balance, crit_id.bit_length() - 1 + ROOT_LEVEL, crit_id,
                crit_parent, crit_id & 1, events, before_rotation, on_rotation,
            )
        return events

    def _rebalance(self, z, balance, level, z_id, attach_parent, attach_side,
                   events, before_rotation, on_rotation):
        heavy = RIGHT if balance > 0 else LEFT
        y = z.right if heavy == RIGHT else z.left
        if y.balance < 0 if heavy == RIGHT else y.balance > 0:
            # RL (LR): rotate the child toward the heavy side, then z away.
            kind = "RL" if heavy == RIGHT else "LR"
            self._rotate(y, heavy, level + 1, 2 * z_id + heavy, z, heavy,
                         kind, events, before_rotation, on_rotation)
        else:
            kind = "RR" if heavy == RIGHT else "LL"
        self._rotate(z, 1 - heavy, level, z_id, attach_parent, attach_side,
                     kind, events, before_rotation, on_rotation)

    def _rotate(self, sub_root, direction, level, heap_id, attach_parent,
                attach_side, kind, events, before_rotation, on_rotation):
        """Perform one single rotation at ``sub_root`` and emit its event.

        ``direction`` is the rotation direction: LEFT hoists the right
        child, RIGHT hoists the left child.
        """
        if before_rotation is not None:
            before_rotation(sub_root, kind)

        # Balances follow the single-rotation rules: a is the sub-root's
        # and b the pivot's, each updated from the values before.
        if direction == LEFT:
            hoist, pivot = RIGHT, sub_root.right
            outer, inner, far = sub_root.left, pivot.left, pivot.right
            sub_root.right, pivot.left = inner, sub_root
            b = pivot.balance
            a = sub_root.balance - 1 - (b if b > 0 else 0)
            b += (a if a < 0 else 0) - 1
        else:
            hoist, pivot = LEFT, sub_root.left
            outer, inner, far = sub_root.right, pivot.right, pivot.left
            sub_root.left, pivot.right = inner, sub_root
            b = pivot.balance
            a = sub_root.balance + 1 - (b if b < 0 else 0)
            b += (a if a > 0 else 0) + 1
        sub_root.balance, pivot.balance = a, b

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
            kind, level, heap_id, rewired,
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
