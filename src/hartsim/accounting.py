"""Bit-flip accounting for rotations.

A write is modeled at word granularity: rewriting a stored address word
costs the Hamming distance between the old and the new word.  Two write
categories exist:

* pointer rewrites -- child-pointer fields (and the root pointer) that now
  link a *different* node, costed as the distance between the old and
  new stored words.  These are the writes a rotation intrinsically
  performs.  Fields that merely gain or lose a child are structural and
  carry no flip cost, and fields whose child merely changed address are
  charged through the relabel category instead.
* node relabels -- every node a positional scheme re-addressed, costed
  as the Hamming distance between its old and new address: the
  propagation cost of re-addressing.

Which categories count is chosen by :class:`AccountingConfig`; the
default counts pointer rewrites only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .avl import RotationEvent


class WordWrite:
    """One word rewrite handed to a rotation hook; never a no-op.

    ``location`` is ("link", node) for the pointer field (or the root
    pointer) that now links ``node``, or ("label", node) for a relabel.
    """

    __slots__ = ("location", "old", "new")

    def __init__(self, location: tuple, old: int, new: int):
        if old == new:
            raise ValueError("no-op write recorded")
        self.location = location
        self.old = old
        self.new = new


@dataclass
class AccountingConfig:
    count_pointer_rewrites: bool = True
    count_node_relabels: bool = False

    def __post_init__(self):
        if not (self.count_pointer_rewrites or self.count_node_relabels):
            raise ValueError("at least one write category must be counted")


@dataclass
class FlipLedger:
    """Per-trial flip and rotation counters, split by pivot level."""

    total_flips: int = 0
    total_rotations: int = 0
    flips_per_level: Counter = field(default_factory=Counter)
    rotations_per_level: Counter = field(default_factory=Counter)
    overflow_fallbacks: int = 0
    indexed_nodes: int = 0  # positional indices computed by re-assignment

    def merge(self, other: "FlipLedger") -> "FlipLedger":
        """Field-wise sum: the ledger of both event streams run in turn."""
        return FlipLedger(
            total_flips=self.total_flips + other.total_flips,
            total_rotations=self.total_rotations + other.total_rotations,
            flips_per_level=self.flips_per_level + other.flips_per_level,
            rotations_per_level=self.rotations_per_level + other.rotations_per_level,
            overflow_fallbacks=self.overflow_fallbacks + other.overflow_fallbacks,
            indexed_nodes=self.indexed_nodes + other.indexed_nodes,
        )


def record_rotation(
    event: RotationEvent,
    relabel_flips: int,
    pointer_flips: int,
    ledger: FlipLedger,
    acct: AccountingConfig,
) -> None:
    """Credit one rotation and its counted categories' flips to its level."""
    flips = 0
    if acct.count_pointer_rewrites:
        flips += pointer_flips
    if acct.count_node_relabels:
        flips += relabel_flips
    level = event.pivot_level
    ledger.total_rotations += 1
    ledger.rotations_per_level[level] += 1
    if flips:
        ledger.total_flips += flips
        ledger.flips_per_level[level] += flips
