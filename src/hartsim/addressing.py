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
whose position changed after a rotation, walking the rotated subtree
(incremental) or sweeping the whole tree a level at a time (full pass);
identity-bound schemes never do.  Conflicts and depth overflows fall
back to the spare queue, which hands out the lowest free address value.
"""

from __future__ import annotations

import heapq
import random
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from typing import Optional

from .avl import LEFT, RIGHT, ROOT_LEVEL, AvlTree, Path


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


# ----------------------------------------------------------------------
# positional indexing
# ----------------------------------------------------------------------
def dfat_rank(heap_id: int, depth: int, depth_capacity: int) -> int:
    """DFAT rank of the position with 1-based heap id ``heap_id`` at
    ``depth``; see :func:`dfat_index`."""
    # XOR with 0b...0101 strips the leading 1 and flips the odd depths,
    # whose first-visited child is Right.
    x = heap_id ^ (((4 << depth) - 1) // 3)
    return depth - x.bit_count() + (x << (depth_capacity - depth))


def dfat_ranks(heap_ids, depth: int, depth_capacity: int) -> list:
    """:func:`dfat_rank` of every id in ``heap_ids``, all at ``depth``,
    as one comprehension with no call per position."""
    flip = ((4 << depth) - 1) // 3
    shift = depth_capacity - depth
    return [depth - (x := heap_id ^ flip).bit_count() + (x << shift)
            for heap_id in heap_ids]


def level_rank(heap_id: int, depth: int, depth_capacity: int) -> int:
    """Level-order rank (root = 0) of the position with heap id ``heap_id``."""
    return heap_id - 1


def level_ranks(heap_ids, depth: int, depth_capacity: int) -> list:
    """:func:`level_rank` of every id in ``heap_ids``."""
    return [heap_id - 1 for heap_id in heap_ids]


def dfat_index(path: Path, depth_capacity: int) -> int:
    """Preorder rank of ``path`` under alternating child order.

    The complete binary tree of ``depth_capacity`` levels is traversed
    depth-first visiting the Left child first at even depths and the
    Right child first at odd depths.  Stepping to the first-visited
    child adds 1 to the rank; stepping to the second skips the whole
    first-child subtree and adds 2**(levels remaining below the parent).
    With ``x`` the steps to a second-visited child as bits, that sum is
    depth - popcount(x) + (x << (capacity - depth)).
    """
    heap_id = level_order_index(path, depth_capacity) + 1
    return dfat_rank(heap_id, len(path), depth_capacity)


def level_order_index(path: Path, depth_capacity: int) -> int:
    """Breadth-first position index (root = 0) of ``path``."""
    if len(path) >= depth_capacity:
        raise DepthOverflowError(
            f"depth {len(path)} exceeds capacity of {depth_capacity} levels"
        )
    return position_id(path) - 1


_STEP_DIGITS = bytes.maketrans(bytes((LEFT, RIGHT)), b"01")


def position_id(path: Path) -> int:
    """Depth-independent identifier of a tree position (1-based heap id):
    1 for the root, and 2*id + step for a child."""
    return int(b"1" + bytes(path).translate(_STEP_DIGITS), 2)


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
    return max(1, int(check_ratio(SchemeKind.HART, ratio) * height + Fraction(1, 2)))


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


def check_ratio(kind: SchemeKind, ratio) -> Optional[Fraction]:
    """The threshold ratio a scheme takes, as a Fraction: hart needs one
    in (0, 1], every other scheme takes none.  A float is read as its
    shortest decimal, so 0.3 is 3/10 as the text "0.3" is."""
    if kind is not SchemeKind.HART:
        if ratio is not None:
            raise ValueError(f"{kind.value} does not take a ratio")
        return None
    if ratio is None:
        raise ValueError("hart requires a threshold_ratio")
    frac = Fraction(str(ratio) if isinstance(ratio, float) else ratio)
    if not 0 < frac <= 1:
        raise ValueError(f"ratio {ratio} outside (0, 1]")
    return frac


@dataclass(frozen=True)
class SchemeConfig:
    kind: SchemeKind
    pointer_width: int
    threshold_ratio: Optional[Fraction] = None
    seed: int = 0

    def __post_init__(self):
        if self.pointer_width < 2:
            raise ValueError("pointer_width must be at least 2 bits")
        ratio = check_ratio(self.kind, self.threshold_ratio)
        object.__setattr__(self, "threshold_ratio", ratio)


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

    def claim(self, value: int, node) -> int:
        if not 0 <= value < self.null_word or value in self.occupied:
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
        if freed:  # every free value below the cursor is in the heap
            value = heapq.heappop(freed)
        else:
            value, limit = self._cursor, self.null_word
            while value < limit and value in occupied:
                value += 1
            if value == limit:
                raise CapacityError(f"address space of width {self.width} exhausted")
            self._cursor = value
        occupied[value] = node
        self.spare_allocations += 1
        return value

    def allocate_next_linear(self, node) -> int:
        """Next free value of the linear counter; past the last value it
        wraps to 0, so it fails only when the space is full."""
        occupied = self.occupied
        limit = self.null_word
        if len(occupied) >= limit:
            raise CapacityError(f"address space of width {self.width} exhausted")
        value = self.next_linear
        while value >= limit or value in occupied:
            value = value + 1 if value < limit else 0
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
        self.width = width  # also the rank capacity in levels: one bit per level
        self.space = AddressSpace(width)
        self.records: dict = {}
        self.overflow_fallbacks = 0
        self.indexed_nodes = 0  # positional indices computed by the two walks
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
        self._rank, self._ranks = ((level_rank, level_ranks) if config.kind is SchemeKind.GRAY
                                   else (dfat_rank, dfat_ranks))
        # Sparse Fisher-Yates: the random pool is the identity over its
        # first ``_left`` slots except where ``_swapped`` says otherwise.
        self._left = self.space.null_word
        self._swapped: dict = {}
        self._rng = random.Random(config.seed) if config.kind is SchemeKind.RANDOM else None

    # -- insertion -----------------------------------------------------
    def assign_on_insert(self, node, depth: int, heap_id: int) -> int:
        """Address a new leaf; an ``on_attach`` of :meth:`AvlTree.insert`."""
        kind = self.config.kind
        if kind is SchemeKind.RANDOM:
            left = self._left
            if not left:
                raise CapacityError("no free address for random draw")
            i = self._rng.randrange(left)
            left -= 1
            self._left = left
            swapped = self._swapped
            value = swapped.get(i, i)
            last = swapped.pop(left, left)
            if i != left:
                swapped[i] = last
            self.space.claim(value, node)
            self.records[node] = AddressRecord(value, SOURCE_RANDOM, 0)
            return value

        if depth < self.linear_cutoff:
            value = self.space.allocate_next_linear(node)
            self.records[node] = AddressRecord(value, SOURCE_LINEAR, 0)
            return value

        target = -1  # depth overflow: no representable target
        if depth < self.width:
            index = self._rank(heap_id, depth, self.width)
            target = index ^ (index >> 1)
            occupied = self.space.occupied
            if target < self.space.null_word and target not in occupied:
                occupied[target] = node
                self.records[node] = AddressRecord(target, SOURCE_POSITIONAL, 0)
                return target
        value, source, pos = self._spare(node, heap_id, target)
        self.records[node] = AddressRecord(value, source, pos)
        return value

    def _spare(self, node, heap_id: int, target: int):
        """Spare-queue binding for a node whose ``target`` is taken (or
        -1, a depth overflow); returns (address, source, bound position).
        Only a spare binding records its position, as a heap id."""
        if target < 0:
            self.overflow_fallbacks += 1
        return self.space.allocate_lowest_free(node), SOURCE_SPARE, heap_id

    # -- re-assignment after rotations ----------------------------------
    def rebind_moved(self, event) -> list:
        """Incremental re-addressing of a rotation's moved nodes: the
        subtree under ``event.pivot``, walked in left-first preorder from
        ``event.pivot_id`` with each node's depth and heap id (a child's
        is 2*id + step).  A DFAT
        index follows in O(1) from the parent's, adding 1 or
        2**(capacity - depth); only the subtree root, nodes just below the
        linear region and level-order ranks are ranked from scratch.  Each
        index computed adds one to :attr:`indexed_nodes`.  Returns
        (node, old_addr, new_addr) relabels."""
        if self.identity_bound:
            return []
        records = self.records
        release = self.space.release
        cutoff = self.linear_cutoff
        rank = self._rank
        capacity = self.width
        depth = event.pivot_level - ROOT_LEVEL
        # Nodes deeper than ``scratch`` take their index from the parent.
        scratch = max(cutoff, depth) if rank is dfat_rank else capacity
        stack = [(event.pivot, depth, event.pivot_id, 0)]
        push = stack.append
        pop = stack.pop
        changers = []
        append = changers.append
        indexed = 0
        while stack:
            node, depth, heap_id, parent = pop()
            if depth < cutoff:
                index = target = None  # linear region
            elif depth >= capacity:
                index, target = 0, -1  # depth overflow: no representable target
            else:
                indexed += 1
                if depth <= scratch:
                    index = rank(heap_id, depth, capacity)
                elif heap_id & 1 == (depth - 1) & 1:  # first-visited child
                    index = parent + 1
                else:
                    index = parent + (1 << (capacity - depth))
                target = index ^ (index >> 1)
            child = node.right
            if child is not None:
                push((child, depth + 1, 2 * heap_id + 1, index))
            child = node.left
            if child is not None:
                push((child, depth + 1, 2 * heap_id, index))
            rec = records[node]
            if target is None:
                if rec.source == SOURCE_LINEAR:
                    continue  # identity-bound while it stays in the region
            elif rec.addr == target:
                rec.source = SOURCE_POSITIONAL
                continue
            elif rec.source == SOURCE_SPARE and rec.bound_pos == heap_id:
                continue  # spare binding is still for this position
            release(rec.addr)
            append((node, heap_id, rec, target, depth))
        self.indexed_nodes += indexed
        return self._claim(changers)

    def full_pass(self, tree: AvlTree) -> list:
        """Whole-tree re-addressing sweep, one depth at a time.

        Each level is decided once: linear region, depth overflow, or
        positional, where one call of the scheme's rank function ranks
        the whole level from scratch from its heap ids (each adds one to
        :attr:`indexed_nodes`).  Nodes are kept, released and claimed by
        the rules of :meth:`rebind_moved`, and claimed in its preorder,
        so on a consistent tree both modes give the same relabels.
        """
        if self.identity_bound or tree.root is None:
            return []
        records = self.records
        release = self.space.release
        cutoff = self.linear_cutoff
        capacity = self.width
        nodes, heap_ids = [tree.root], [1]
        depth = 0
        changers = []
        append = changers.append
        while nodes:
            if depth < cutoff:
                targets = repeat(None)  # linear region
            elif depth >= capacity:
                targets = repeat(-1)  # depth overflow: no representable target
            else:
                targets = [index ^ (index >> 1)
                           for index in self._ranks(heap_ids, depth, capacity)]
                self.indexed_nodes += len(nodes)
            below, below_ids = [], []
            add, add_id = below.append, below_ids.append
            for node, heap_id, target in zip(nodes, heap_ids, targets):
                child = node.left
                if child is not None:
                    add(child)
                    add_id(2 * heap_id)
                child = node.right
                if child is not None:
                    add(child)
                    add_id(2 * heap_id + 1)
                rec = records[node]
                if target is None:
                    if rec.source == SOURCE_LINEAR:
                        continue
                elif rec.addr == target:
                    rec.source = SOURCE_POSITIONAL
                    continue
                elif rec.source == SOURCE_SPARE and rec.bound_pos == heap_id:
                    continue
                release(rec.addr)
                append((node, heap_id, rec, target, depth))
            nodes, heap_ids = below, below_ids
            depth += 1
        # Heap ids shifted to one common depth order positions left-first;
        # an ancestor ties with its leftmost descendants and goes first.
        changers.sort(key=lambda c: (c[1] << (depth - c[4]), c[4]))
        return self._claim(changers)

    def _claim(self, changers) -> list:
        """Binds ``changers`` (node, heap id, record, target, depth), in
        order, to a linear value (target None), their free target or a
        spare value, and returns the relabels.  The walks released their
        old values first, so a rotation never collides with its own."""
        space = self.space
        occupied = space.occupied
        null_word = space.null_word
        relabels = []
        for node, heap_id, rec, target, _ in changers:
            old = rec.addr
            if target is None:
                value, source, pos = space.allocate_next_linear(node), SOURCE_LINEAR, 0
            elif 0 <= target < null_word and target not in occupied:
                occupied[target] = node
                value, source, pos = target, SOURCE_POSITIONAL, 0
            else:
                value, source, pos = self._spare(node, heap_id, target)
            rec.addr = value
            rec.source = source
            rec.bound_pos = pos
            if value != old:
                relabels.append((node, old, value))
        return relabels
