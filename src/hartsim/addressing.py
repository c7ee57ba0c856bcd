"""Address allocation schemes for tree nodes in a flip-counted memory.

Five schemes are provided:

* ``linear``    -- addresses issued in insertion order (identity-bound).
* ``random``    -- seeded uniform draw from the free values (identity-bound).
* ``gray``      -- Gray code of the node's level-order position index.
* ``dfat-gray`` -- Gray code of the node's depth-first alternating
  traversal (DFAT) rank; tree-adjacent positions get numerically close
  ranks, so their Gray addresses differ in few bits.
* ``hart``      -- hybrid: linear addressing for levels up to a
  threshold T, DFAT-Gray below it.

Positional schemes (gray, dfat-gray, hart below T) re-address nodes
whose position changed after a rotation; identity-bound schemes never
do.  Conflicts and depth overflows fall back to the spare queue, which
always hands out the lowest free address value.
"""

from __future__ import annotations

import heapq
import random
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .avl import LEFT, RIGHT, AvlTree, Path


class CapacityError(RuntimeError):
    """No free address value is left in the space."""


class DepthOverflowError(ValueError):
    """A node's depth does not fit the positional index capacity."""


# ----------------------------------------------------------------------
# bit-level encodings
# ----------------------------------------------------------------------
def binary_to_gray(value: int, width: int) -> int:
    """Gray code of ``value``: value XOR (value >> 1)."""
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {value} out of range for {width} bits")
    return value ^ (value >> 1)


def gray_to_binary(gray: int, width: int) -> int:
    """Inverse of :func:`binary_to_gray` (prefix XOR)."""
    if not 0 <= gray < (1 << width):
        raise ValueError(f"value {gray} out of range for {width} bits")
    value = 0
    while gray:
        value ^= gray
        gray >>= 1
    return value


# ----------------------------------------------------------------------
# positional indexing
# ----------------------------------------------------------------------
def dfat_index(path: Path, depth_capacity: int) -> int:
    """Preorder rank of ``path`` under alternating child order.

    The complete binary tree of ``depth_capacity`` levels is traversed
    depth-first visiting the Left child first at even depths and the
    Right child first at odd depths.  The rank is accumulated in
    O(len(path)) by skipping whole first-child subtrees: stepping to the
    first-visited child adds 1, stepping to the second adds the skipped
    subtree size plus one, i.e. 2**(levels remaining below the parent).
    """
    depth = len(path)
    if depth >= depth_capacity:
        raise DepthOverflowError(
            f"depth {depth} exceeds capacity of {depth_capacity} levels"
        )
    rank = 0
    for i, step in enumerate(path):
        first = LEFT if (i & 1) == 0 else RIGHT
        if step == first:
            rank += 1
        else:
            rank += 1 << (depth_capacity - 1 - i)
    return rank


def level_order_index(path: Path, depth_capacity: int) -> int:
    """Breadth-first position index (root = 0) of ``path``."""
    if len(path) >= depth_capacity:
        raise DepthOverflowError(
            f"depth {len(path)} exceeds capacity of {depth_capacity} levels"
        )
    pos = 1
    for step in path:
        pos = (pos << 1) | step
    return pos - 1


def position_id(path: Path) -> int:
    """Depth-independent identifier of a tree position (1-based heap id)."""
    pos = 1
    for step in path:
        pos = (pos << 1) | step
    return pos


# ----------------------------------------------------------------------
# threshold selection
# ----------------------------------------------------------------------
def tree_height_estimate(num_nodes: int) -> int:
    """ceil(log2(num_nodes + 1)), in exact integer arithmetic."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    return num_nodes.bit_length()


def threshold_from_ratio(height: int, ratio) -> int:
    """max(1, round(height * ratio)), rounding half away from zero."""
    if height < 1:
        raise ValueError("height must be >= 1")
    frac = Fraction(ratio)
    if not 0 < frac <= 1:
        raise ValueError(f"ratio {ratio} outside (0, 1]")
    return max(1, int(frac * height + Fraction(1, 2)))


@dataclass(frozen=True)
class Threshold:
    """Height estimate H and the level T splitting linear from DFAT-Gray."""

    height: int
    level: int

    @classmethod
    def for_tree(cls, num_nodes: int, ratio) -> "Threshold":
        height = tree_height_estimate(num_nodes)
        return cls(height=height, level=threshold_from_ratio(height, ratio))


# ----------------------------------------------------------------------
# scheme configuration
# ----------------------------------------------------------------------
class SchemeKind(str, Enum):
    LINEAR = "linear"
    RANDOM = "random"
    GRAY = "gray"
    DFAT_GRAY = "dfat-gray"
    HART = "hart"

    def __str__(self) -> str:  # pragma: no cover
        return self.value


SCHEME_TAGS = tuple(kind.value for kind in SchemeKind)


@dataclass(frozen=True)
class SchemeConfig:
    kind: SchemeKind
    pointer_width: int
    threshold_ratio: Optional[Fraction] = None
    seed: int = 0

    def __post_init__(self):
        if self.pointer_width < 2:
            raise ValueError("pointer_width must be at least 2 bits")
        if self.kind is SchemeKind.HART:
            if self.threshold_ratio is None:
                raise ValueError("hart requires a threshold_ratio")
            ratio = Fraction(self.threshold_ratio)
            if not 0 < ratio <= 1:
                raise ValueError(f"ratio {ratio} outside (0, 1]")
            object.__setattr__(self, "threshold_ratio", ratio)

    @property
    def tag(self) -> str:
        return self.kind.value


# ----------------------------------------------------------------------
# address space
# ----------------------------------------------------------------------
class AddressSpace:
    """Occupancy over [0, 2**width - 1); the all-ones word is the
    reserved null pattern and is never handed out.

    The spare queue policy is "lowest free value".  The scan cursor only
    ever moves up, past values that were occupied when it scanned them,
    so it finds any free value at or above it; a lazily cleaned min-heap
    holds the values freed below it.
    """

    def __init__(self, width: int):
        self.width = width
        self.null_word = (1 << width) - 1
        self.occupied: dict = {}  # value -> node
        self.next_linear = 0
        self.spare_allocations = 0
        self._freed = []  # min-heap of values released below the cursor (may be stale)
        self._cursor = 0

    def is_free(self, value: int) -> bool:
        return (
            0 <= value < self.null_word and value not in self.occupied
        )

    def claim(self, value: int, node) -> int:
        if not self.is_free(value):
            raise ValueError(f"address {value} is not free")
        self.occupied[value] = node
        return value

    def release(self, value: int) -> None:
        del self.occupied[value]
        if value < self._cursor:
            heapq.heappush(self._freed, value)

    def allocate_lowest_free(self, node) -> int:
        """Spare-queue allocation: claim and return the lowest free value."""
        occupied = self.occupied
        freed = self._freed
        while freed and freed[0] in occupied:  # drop stale entries
            heapq.heappop(freed)
        cursor = self._cursor
        limit = self.null_word
        while cursor < limit and cursor in occupied:
            cursor += 1
        self._cursor = cursor
        candidates = []
        if freed:
            candidates.append(freed[0])
        if cursor < limit:
            candidates.append(cursor)
        if not candidates:
            raise CapacityError(f"address space of width {self.width} exhausted")
        value = min(candidates)
        if freed and value == freed[0]:
            heapq.heappop(freed)
        self.occupied[value] = node
        self.spare_allocations += 1
        return value

    def allocate_next_linear(self, node) -> int:
        """Next available value of the monotone linear counter."""
        value = self.next_linear
        limit = self.null_word
        occupied = self.occupied
        while value < limit and value in occupied:
            value += 1
        if value >= limit:
            raise CapacityError(f"linear counter ran past width {self.width}")
        occupied[value] = node
        self.next_linear = value + 1
        return value


# ----------------------------------------------------------------------
# per-node assignment records
# ----------------------------------------------------------------------
SOURCE_LINEAR = "linear"
SOURCE_POSITIONAL = "positional"
SOURCE_SPARE = "spare"
SOURCE_RANDOM = "random"


class AddressRecord:
    __slots__ = ("addr", "source", "bound_pos")

    def __init__(self, addr: int, source: str, bound_pos: int):
        self.addr = addr
        self.source = source
        self.bound_pos = bound_pos


class AddressAssigner:
    """Assigns and re-assigns node addresses under one scheme.

    One instance serves one trial: it owns the :class:`AddressSpace`
    and a per-node audit record (address, how it was obtained, and for a
    spare binding the position it was bound at).
    """

    def __init__(self, config: SchemeConfig, num_nodes: Optional[int] = None):
        self.config = config
        width = config.pointer_width
        self.width = width
        # Positional index capacity in levels; one address bit per level.
        self.depth_capacity = width
        self.space = AddressSpace(width)
        self.records: dict = {}
        self.overflow_fallbacks = 0
        self.indexed_nodes = 0  # positional indices computed by _rebind
        # Nodes at depths below the cutoff take linear addresses; a
        # linear tree gets deeper than its width, so its cutoff is unbounded.
        self.linear_cutoff = sys.maxsize if config.kind is SchemeKind.LINEAR else 0
        self.threshold: Optional[Threshold] = None
        if config.kind is SchemeKind.HART:
            if num_nodes is None:
                raise ValueError("hart needs num_nodes to derive its threshold")
            self.threshold = Threshold.for_tree(num_nodes, config.threshold_ratio)
            self.linear_cutoff = self.threshold.level
        # Linear and random addresses stay with their node for good.
        self.identity_bound = config.kind in (SchemeKind.LINEAR, SchemeKind.RANDOM)
        self._rank = level_order_index if config.kind is SchemeKind.GRAY else dfat_index
        self._rng = None
        self._free_pool = None
        if config.kind is SchemeKind.RANDOM:
            self._rng = random.Random(config.seed)
            self._free_pool = list(range(self.space.null_word))

    # -- queries -------------------------------------------------------
    def address_of(self, node) -> int:
        return self.records[node].addr

    def record_of(self, node) -> AddressRecord:
        return self.records[node]

    # -- insertion -----------------------------------------------------
    def assign_on_insert(self, node, path: Path) -> int:
        kind = self.config.kind
        if kind is SchemeKind.RANDOM:
            pool = self._free_pool
            if not pool:
                raise CapacityError("no free address for random draw")
            i = self._rng.randrange(len(pool))
            pool[i], pool[-1] = pool[-1], pool[i]
            value = pool.pop()
            self.space.claim(value, node)
            self.records[node] = AddressRecord(value, SOURCE_RANDOM, 0)
            return value

        depth = len(path)
        if depth < self.linear_cutoff:
            value = self.space.allocate_next_linear(node)
            self.records[node] = AddressRecord(value, SOURCE_LINEAR, 0)
            return value

        target = -1  # depth overflow: no representable target
        if depth < self.depth_capacity:
            index = self._rank(path, self.depth_capacity)
            target = index ^ (index >> 1)
            occupied = self.space.occupied
            if target < self.space.null_word and target not in occupied:
                occupied[target] = node
                self.records[node] = AddressRecord(target, SOURCE_POSITIONAL, 0)
                return target
        value, source, pos = self._spare(node, path, target)
        self.records[node] = AddressRecord(value, source, pos)
        return value

    def _spare(self, node, path: Path, target: int):
        """Spare-queue binding for a node whose ``target`` is taken (or
        -1, a depth overflow); returns (address, source, bound position).
        Only a spare binding records its position."""
        if target < 0:
            self.overflow_fallbacks += 1
        return self.space.allocate_lowest_free(node), SOURCE_SPARE, position_id(path)

    # -- re-assignment after rotations ----------------------------------
    def rebind_moved(self, moved) -> list:
        """Incremental re-addressing of a rotation's moved nodes.

        ``moved`` is the event's (node, old_path, new_path) list, in
        preorder of the rearranged subtree; only the new paths matter.
        Returns (node, old_addr, new_addr) relabels.
        """
        return self._rebind([(node, new) for node, _, new in moved], derive=True)

    def full_pass(self, tree: AvlTree) -> list:
        """Whole-tree re-addressing sweep (recursive assignment pass).

        Visits every node in preorder and applies the same region rules
        as the incremental path.  Nodes whose address already matches
        their position are left untouched, so on a consistent tree this
        returns exactly the relabels the incremental mode would.
        """
        return self._rebind(tree.nodes_with_paths(), derive=False)

    def _rebind(self, entries, derive: bool) -> list:
        """Two-phase batch re-addressing of (node, path) entries in
        preorder of a subtree.

        Phase A computes each node's target once, decides which nodes
        need a new address and releases their old values; phase B claims
        in the same order.  Freeing first keeps a rotation from colliding
        with addresses its own moved set is about to give up.

        The full pass computes each index from scratch (the per-node cost
        that mode measures).  With ``derive`` an index follows in O(1)
        from the parent's, the latest node seen one level up: DFAT adds 1
        or 2**(capacity - depth), level order maps r to 2r + 1 + step.
        Only the subtree root and nodes just below the linear region
        start from scratch.  Each index computed adds one to
        :attr:`indexed_nodes`; tests cover the equivalence of the inlined
        arithmetic with :func:`dfat_index` and :func:`level_order_index`.
        """
        if self.identity_bound:
            return []
        records = self.records
        space = self.space
        cutoff = self.linear_cutoff
        use_level_order = self.config.kind is SchemeKind.GRAY
        capacity = self.depth_capacity
        # Nodes deeper than ``scratch`` take their index from the parent.
        scratch = max(cutoff, len(entries[0][1])) if derive else capacity
        ranks = [0] * capacity  # index of the latest node seen per depth
        changers = []
        append = changers.append
        release = space.release
        indexed = 0
        for node, path in entries:
            rec = records[node]
            depth = len(path)
            if depth < cutoff:
                if rec.source == SOURCE_LINEAR:
                    continue  # identity-bound while it stays in the region
                release(rec.addr)
                append((node, path, rec, None))
                continue
            if depth >= capacity:
                target = -1  # depth overflow: no representable target
            else:
                indexed += 1
                if depth > scratch:
                    parent = ranks[depth - 1]
                    if use_level_order:
                        index = 2 * parent + 1 + path[-1]
                    elif path[-1] == ((depth - 1) & 1):
                        index = parent + 1
                    else:
                        index = parent + (1 << (capacity - depth))
                elif use_level_order:
                    index = 1
                    for step in path:
                        index = (index << 1) | step
                    index -= 1
                else:
                    index = 0
                    for i, step in enumerate(path):
                        if step == (i & 1):
                            index += 1
                        else:
                            index += 1 << (capacity - 1 - i)
                ranks[depth] = index
                target = index ^ (index >> 1)
            if rec.addr == target:
                if rec.source != SOURCE_POSITIONAL:
                    rec.source = SOURCE_POSITIONAL
                continue
            if rec.source == SOURCE_SPARE and rec.bound_pos == position_id(path):
                continue  # spare binding is still for this position
            release(rec.addr)
            append((node, path, rec, target))
        self.indexed_nodes += indexed

        relabels = []
        occupied = space.occupied
        null_word = space.null_word
        for node, path, rec, target in changers:
            old = rec.addr
            if target is None:
                value, source, pos = space.allocate_next_linear(node), SOURCE_LINEAR, 0
            elif 0 <= target < null_word and target not in occupied:
                occupied[target] = node
                value, source, pos = target, SOURCE_POSITIONAL, 0
            else:
                value, source, pos = self._spare(node, path, target)
            rec.addr = value
            rec.source = source
            rec.bound_pos = pos
            if value != old:
                relabels.append((node, old, value))
        return relabels
