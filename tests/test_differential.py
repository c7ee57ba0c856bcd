"""Differential test of the re-addressing sweep on adversarial inputs.

Random permutations rarely give sorted runs, zig-zags that force one
double rotation after another, or a pointer width barely large enough
for the tree; those push the most nodes through the spare queue and the
depth-overflow path.  Hypothesis draws such inputs and checks, after
every insert, the incremental sweep against the full pass and every
address against ranks from brute-force traversals of the complete tree.
On the same inputs the flip ledgers are checked against snapshot diffs
and against each other across counting conventions, re-addressing
modes, and key-by-key against whole-run insertion.
"""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import address_map, brute_force_dfat_ranks
from test_accounting import ORACLE_ACCOUNTINGS, run_with_snapshot_oracle
from hartsim.accounting import AccountingConfig
from hartsim.addressing import (
    CapacityError,
    SchemeConfig,
    SchemeKind,
    SOURCE_POSITIONAL,
    SOURCE_SPARE,
    binary_to_gray,
    position_id,
)
from hartsim.avl import LEFT, RIGHT, AvlTree
from hartsim.harness import DECOMPOSED, FULL_PASS, INCREMENTAL, PER_CASE, TrialRunner

SCHEMES = [(SchemeKind(tag), None) for tag in ("linear", "random", "gray", "dfat-gray")] + [
    (SchemeKind.HART, Fraction(k, 4)) for k in (1, 2, 3)
]


@lru_cache(maxsize=None)
def dfat_ranks(width):
    return brute_force_dfat_ranks(width)


@lru_cache(maxsize=None)
def level_ranks(width):
    """Breadth-first rank of every position, level by level and left to
    right within a level."""
    paths = [p for depth in range(width) for p in product((LEFT, RIGHT), repeat=depth)]
    return {path: rank for rank, path in enumerate(paths)}


def smallest_width(n):
    """The fewest bits whose 2**w - 1 non-null values address n nodes."""
    return max(2, n.bit_length())


@st.composite
def insert_orders(draw, n):
    """Keys 0..n-1 as a permutation, as sorted runs, or as a zig-zag."""
    shape = draw(st.sampled_from(("permutation", "sorted runs", "zig-zag")))
    if shape == "permutation":
        return draw(st.permutations(range(n)))
    if shape == "zig-zag":  # ends inwards: each key lands between the last two
        return [k for pair in zip(range(n), range(n - 1, -1, -1)) for k in pair][:n]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=8))) if n > 1 else []
    runs = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [n])]
    runs = [run[::-1] if draw(st.booleans()) else run for run in runs]
    return [key for run in draw(st.permutations(runs)) for key in run]


def runner(kind, ratio, width, n, mode, acct=None, counting=PER_CASE):
    return TrialRunner(SchemeConfig(kind, width, ratio, seed=5), acct or AccountingConfig(),
                       reassign_mode=mode, num_nodes=n, rotation_counting=counting)


def double_rotations(keys):
    """LR/RL cases in inserting ``keys``: an insert rebalances at most
    once, and a double rotation is its only two-event rebalance."""
    tree = AvlTree()
    return sum(len(tree.insert(key)) == 2 for key in keys)


def check_records(run, width):
    assigner = run.assigner
    ranks = level_ranks(width) if assigner.config.kind is SchemeKind.GRAY else dfat_ranks(width)
    seen = set()
    for node, path in run.tree.nodes_with_paths():
        rec = assigner.records[node]
        assert rec.addr != assigner.space.null_word
        assert rec.addr not in seen, f"address {rec.addr} given twice"
        seen.add(rec.addr)
        if rec.source == SOURCE_POSITIONAL:
            assert rec.addr == binary_to_gray(ranks[path], width), path
        elif rec.source == SOURCE_SPARE:
            assert rec.bound_pos == position_id(path), path


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(1, 200), extra=st.integers(0, 4), data=st.data())
def test_incremental_sweep_matches_full_pass_and_brute_force_ranks(n, extra, data):
    keys = data.draw(insert_orders(n))
    width = smallest_width(n) + extra
    for kind, ratio in SCHEMES:
        incremental = runner(kind, ratio, width, n, INCREMENTAL)
        full = runner(kind, ratio, width, n, FULL_PASS)
        for key in keys:
            incremental.insert(key)
            full.insert(key)
            assert address_map(incremental) == address_map(full), (kind, ratio, key)
            check_records(incremental, width)
            check_records(full, width)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(width=st.integers(2, 7), data=st.data())
def test_one_node_too_many_raises_capacity_error(width, data):
    """2**width nodes overfill the 2**width - 1 non-null values."""
    keys = data.draw(insert_orders(1 << width))
    for (kind, ratio), mode in product(SCHEMES, (INCREMENTAL, FULL_PASS)):
        run = runner(kind, ratio, width, len(keys), mode)
        with pytest.raises(CapacityError):
            for key in keys:
                run.insert(key)


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(n=st.integers(1, 200), extra=st.integers(0, 4), data=st.data())
def test_flip_ledgers_agree_on_adversarial_inputs(n, extra, data):
    """Event flips equal snapshot diffs under every accounting; per-case
    and decomposed counting book the same flips, the decomposed count
    one rotation more per double; incremental and full-pass ledgers
    differ only in ``indexed_nodes``; and inserting key by key books
    exactly the ledger that one whole run does."""
    keys = data.draw(insert_orders(n))
    width = smallest_width(n) + extra
    doubles = double_rotations(keys)
    for kind, ratio in SCHEMES:
        for acct in ORACLE_ACCOUNTINGS:
            run_with_snapshot_oracle(width, kind, ratio, 5, acct, num_nodes=n, keys=keys)
        ledgers = {}
        for (a, acct), mode, counting in product(enumerate(ORACLE_ACCOUNTINGS),
                                                 (INCREMENTAL, FULL_PASS),
                                                 (PER_CASE, DECOMPOSED)):
            whole = runner(kind, ratio, width, n, mode, acct, counting)
            whole.run(keys)
            by_key = runner(kind, ratio, width, n, mode, acct, counting)
            for key in keys:
                by_key.insert(key)
            assert by_key.ledger == whole.ledger, (kind, ratio, acct, mode, counting)
            ledgers[a, mode, counting] = whole.ledger
        for a, acct in enumerate(ORACLE_ACCOUNTINGS):
            for mode in (INCREMENTAL, FULL_PASS):
                per_case, decomposed = ledgers[a, mode, PER_CASE], ledgers[a, mode, DECOMPOSED]
                assert per_case.total_flips == decomposed.total_flips, (kind, ratio, acct, mode)
                assert decomposed.total_rotations - per_case.total_rotations == doubles
            for counting in (PER_CASE, DECOMPOSED):
                inc, full = ledgers[a, INCREMENTAL, counting], ledgers[a, FULL_PASS, counting]
                assert replace(full, indexed_nodes=inc.indexed_nodes) == inc, (
                    kind, ratio, acct, counting)
