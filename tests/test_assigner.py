import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import address_map, balanced_order, binary_to_gray, heap_id_of
from hartsim.accounting import AccountingConfig
from hartsim.addressing import (
    AddressAssigner,
    CapacityError,
    SchemeConfig,
    SchemeKind,
    SOURCE_LINEAR,
    SOURCE_POSITIONAL,
    SOURCE_RANDOM,
    SOURCE_SPARE,
    dfat_rank,
    threshold_from_ratio,
    tree_height_estimate,
)
from hartsim.avl import AvlTree, RotationEvent
from hartsim.harness import (
    FULL_PASS,
    INCREMENTAL,
    TrialRunner,
    gen_dataset,
    rotations_histogram,
    run_trial,
)


def make_runner(kind, width, ratio=None, n=None, mode=INCREMENTAL, seed=7):
    cfg = SchemeConfig(kind, width, ratio, seed=seed)
    return TrialRunner(cfg, AccountingConfig(), reassign_mode=mode, num_nodes=n)


def feed(runner, keys):
    for key in keys:
        runner.run((key,))
    return runner


def test_linear_assigns_insertion_order():
    runner = make_runner(SchemeKind.LINEAR, 8, n=40)
    keys = gen_dataset(40, 3)
    feed(runner, keys)
    addr = address_map(runner)
    assert [addr[k] for k in keys] == list(range(40))


def test_linear_and_random_never_relabel():
    for kind in (SchemeKind.LINEAR, SchemeKind.RANDOM):
        runner = make_runner(kind, 8, n=80)
        relabel_batches = []
        runner.after_rotation_hook = (
            lambda event, relabels, rewrites: relabel_batches.append(relabels)
        )
        feed(runner, gen_dataset(80, 11))
        assert relabel_batches, "workload produced no rotations"
        assert all(batch == [] for batch in relabel_batches)


@pytest.mark.parametrize("mode", [INCREMENTAL, FULL_PASS])
@pytest.mark.parametrize(
    "kind, source", [(SchemeKind.LINEAR, SOURCE_LINEAR), (SchemeKind.RANDOM, SOURCE_RANDOM)]
)
def test_identity_bound_addresses_hold_deeper_than_the_pointer_width(kind, source, mode):
    """Width 8 with 250 nodes grows AVL nodes deeper than the width; a
    linear or random node keeps its insert-time address and source at
    any depth, to the end of the trial."""
    deepest = 0
    for seed in (3, 4, 6, 7, 8):
        runner = make_runner(kind, 8, n=250, mode=mode, seed=seed)
        assigner = runner.assigner
        at_insert = {}
        assign = assigner.assign_on_insert

        def spy(node, depth, heap_id):
            value = assign(node, depth, heap_id)
            at_insert[node] = (value, assigner.records[node].source)
            return value

        assigner.assign_on_insert = spy
        feed(runner, gen_dataset(250, seed))
        assert runner.ledger.total_rotations > 0
        for node, path in runner.tree.nodes_with_paths():
            deepest = max(deepest, len(path))
            value, insert_source = at_insert[node]
            assert insert_source == source
            rec = assigner.records[node]
            assert (rec.addr, rec.source) == (value, source)
    assert deepest > 8, "no node got deeper than the pointer width"


@pytest.mark.parametrize("kind", [SchemeKind.LINEAR, SchemeKind.RANDOM])
def test_identity_bound_incremental_trial_never_walks_the_moved_set(kind, monkeypatch):
    def walked(event):
        raise AssertionError("moved set walked")

    monkeypatch.setattr(RotationEvent, "moved", property(walked))
    runner = feed(make_runner(kind, 8, n=63), gen_dataset(63, 5))
    assert runner.ledger.total_rotations > 0


def test_rewired_is_read_only_to_charge_or_hand_over_pointer_writes(monkeypatch):
    """Rotation histograms and an unhooked trial that counts relabels
    only never read ``rewired``: an event is built without its pairs."""
    def read(event):
        raise AssertionError("rewired read")

    monkeypatch.setattr(RotationEvent, "rewired", property(read))
    assert sum(rotations_histogram(10, 2, 3).values()) > 0
    scheme = SchemeConfig(SchemeKind.DFAT_GRAY, 9)
    ledger, _ = run_trial(scheme, 4, AccountingConfig(False, True))
    assert ledger.total_rotations > 0 and ledger.total_flips > 0


def test_random_is_seed_deterministic_and_unique():
    def run(seed):
        runner = make_runner(SchemeKind.RANDOM, 9, n=100, seed=seed)
        feed(runner, gen_dataset(100, 5))
        return address_map(runner)

    first, second, other = run(42), run(42), run(43)
    assert first == second
    assert first != other
    null_word = (1 << 9) - 1
    values = list(first.values())
    assert len(set(values)) == len(values)
    assert all(0 <= v < null_word for v in values)


def _dense_draws(width, seed, draws):
    """Reference: the whole free list, drawn by swapping with the last."""
    rng = random.Random(seed)
    pool = list(range((1 << width) - 1))
    values = []
    for _ in range(draws):
        i = rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        values.append(pool.pop())
    return values


def _random_assigner(width, seed):
    return AddressAssigner(SchemeConfig(SchemeKind.RANDOM, width, seed=seed), (1 << width) - 1)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(width=st.integers(2, 10), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_random_sparse_draws_match_the_dense_pool(width, seed, data):
    size = (1 << width) - 1
    draws = data.draw(st.integers(1, size))
    assigner = _random_assigner(width, seed)
    values = [assigner.assign_on_insert(node, 0, 1) for node in range(draws)]
    assert values == _dense_draws(width, seed, draws)
    if draws == size:  # every value drawn: the pool is empty
        with pytest.raises(CapacityError):
            assigner.assign_on_insert(size, 0, 1)


def test_random_pool_memory_does_not_grow_with_the_width():
    tracemalloc.start()
    try:
        assigner = _random_assigner(20, 1)
        for node in range(1000):
            assigner.assign_on_insert(node, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dfat_gray_three_node_rotation_fixture():
    """Ascending 1,2,3 at width 3: the third key's Gray word is the null
    pattern, so it takes the lowest spare value; the rotation then
    re-derives all three addresses from the new positions."""
    runner = make_runner(SchemeKind.DFAT_GRAY, 3, n=3)
    feed(runner, [1, 2])
    assert address_map(runner) == {1: 0, 2: 6}
    relabels = []
    runner.after_rotation_hook = (
        lambda event, rl, rw: relabels.extend(
            (write.location[1].key, write.old, write.new) for write in rl
        )
    )
    runner.run((3,))
    # pre-rotation: 3 sits at [R, R] with rank 5, gray(5) == 7 == null -> spare 1
    assert sorted(relabels) == [(1, 0, 1), (2, 6, 0), (3, 1, 6)]
    assert address_map(runner) == {2: 0, 1: 1, 3: 6}


def test_hart_seven_node_tree_regions_and_addresses():
    """Keys 0..6 inserted balanced at width 5, ratio 1/4 -> T = 1: the
    root is linear address 0, deeper nodes carry Gray-coded DFAT ranks."""
    runner = make_runner(SchemeKind.HART, 5, ratio=Fraction(1, 4), n=7)
    feed(runner, balanced_order(7))
    tree = runner.tree
    assigner = runner.assigner
    assert tree_height_estimate(7) == 3
    assert assigner.linear_cutoff == threshold_from_ratio(3, Fraction(1, 4)) == 1

    root = tree.root
    root_rec = assigner.records[root]
    assert root_rec.source == SOURCE_LINEAR
    assert root_rec.addr == 0

    for node, path in tree.nodes_with_paths():
        if node is root:
            continue
        rec = assigner.records[node]
        assert rec.source == SOURCE_POSITIONAL
        assert rec.addr == binary_to_gray(dfat_rank(heap_id_of(path), len(path), 5))
    # spot values from the hand enumeration
    addr = address_map(runner)
    assert addr[3] == 0  # root (key 3 of 0..6)
    assert addr[1] == binary_to_gray(1) == 1  # path [Left], rank 1
    assert addr[5] == binary_to_gray(16) == 24  # path [Right], rank 16


def test_hart_linear_gray_conflict_falls_back_to_spare():
    """Ascending 1,2,3 under hart T=1: after the rotation the new root
    takes linear address 1, which collides with gray(rank([Left])) = 1,
    pushing the old root onto the spare queue (lowest free value: 0)."""
    runner = make_runner(SchemeKind.HART, 5, ratio=Fraction(1, 4), n=3)
    feed(runner, [1, 2, 3])
    assigner = runner.assigner
    addr = address_map(runner)
    tree = runner.tree
    assert addr[2] == 1  # new root, linear counter value 1
    rec1 = assigner.records[tree.root.left]
    assert rec1.source == SOURCE_SPARE
    assert rec1.addr == 0
    rec3 = assigner.records[tree.root.right]
    assert rec3.source == SOURCE_POSITIONAL
    assert rec3.addr == binary_to_gray(16)
    assert assigner.space.spare_allocations >= 1


def test_hart_ratio_one_on_balanced_tree_is_all_linear():
    # A balanced 63-key build never exceeds level H = 6 = T.
    runner = make_runner(SchemeKind.HART, 8, ratio=1, n=63)
    feed(runner, balanced_order(63))
    for node, _ in runner.tree.nodes_with_paths():
        assert runner.assigner.records[node].source == SOURCE_LINEAR
    assert sorted(address_map(runner).values()) == list(range(63))


def test_hart_rotation_inside_linear_region_relabels_nothing():
    # Threshold derived for 1023 nodes (T = 10) while only 63 keys are
    # inserted: the tree can never outgrow the linear region, so every
    # rotation's moved set is identity-bound.
    runner = make_runner(SchemeKind.HART, 8, ratio=1, n=1023)
    batches = []
    runner.after_rotation_hook = (
        lambda event, relabels, rewrites: batches.append(relabels)
    )
    feed(runner, gen_dataset(63, 9))
    assert batches and all(batch == [] for batch in batches)
    for node, _ in runner.tree.nodes_with_paths():
        assert runner.assigner.records[node].source == SOURCE_LINEAR


def test_hybrid_partition_audit_after_every_insert():
    """Every node at level <= T is linear-bound and every deeper node is
    positional or spare-bound, checked from the audit records after each
    insert."""
    for ratio in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        runner = make_runner(SchemeKind.HART, 9, ratio=ratio, n=127)
        cutoff = threshold_from_ratio(tree_height_estimate(127), ratio)
        assert runner.assigner.linear_cutoff == cutoff
        for key in gen_dataset(127, 13):
            runner.run((key,))
            for node, path in runner.tree.nodes_with_paths():
                rec = runner.assigner.records[node]
                if len(path) + 1 <= cutoff:
                    assert rec.source == SOURCE_LINEAR
                else:
                    assert rec.source in (SOURCE_POSITIONAL, SOURCE_SPARE)
                    if rec.source == SOURCE_POSITIONAL:
                        assert rec.addr == binary_to_gray(
                            dfat_rank(heap_id_of(path), len(path), 9)
                        )


def test_addresses_unique_after_every_insert():
    for kind, ratio in (
        (SchemeKind.LINEAR, None),
        (SchemeKind.RANDOM, None),
        (SchemeKind.GRAY, None),
        (SchemeKind.DFAT_GRAY, None),
        (SchemeKind.HART, Fraction(1, 2)),
    ):
        runner = make_runner(kind, 8, ratio=ratio, n=63)
        for key in gen_dataset(63, 21):
            runner.run((key,))
            values = list(address_map(runner).values())
            assert len(set(values)) == len(values)
            assert (1 << 8) - 1 not in values  # null word never assigned


def test_incremental_equals_full_pass_address_maps():
    for kind, ratio in ((SchemeKind.DFAT_GRAY, None), (SchemeKind.HART, Fraction(1, 2))):
        for seed in range(3):
            runners = [
                make_runner(kind, 8, ratio=ratio, n=63, mode=mode)
                for mode in (INCREMENTAL, FULL_PASS)
            ]
            for key in gen_dataset(63, seed):
                maps = []
                for runner in runners:
                    runner.run((key,))
                    maps.append(address_map(runner))
                assert maps[0] == maps[1]
            assert runners[0].ledger.total_flips == runners[1].ledger.total_flips


def test_spare_heap_keeps_only_values_below_cursor_after_a_trial():
    """A value released at or above the spare scan cursor is found by the
    scan itself, so it never enters the heap of freed values."""
    runner = make_runner(SchemeKind.HART, 12, ratio=Fraction(1, 2), n=1023)
    feed(runner, gen_dataset(1023, 1))
    space = runner.assigner.space
    assert space.spare_allocations > 0
    assert all(value < space._cursor for value in space._freed)


def test_full_pass_is_idempotent():
    runner = make_runner(SchemeKind.DFAT_GRAY, 8, n=63, mode=FULL_PASS)
    feed(runner, gen_dataset(63, 2))
    assert runner.assigner.full_pass(runner.tree) == []


@pytest.mark.parametrize(
    "kind, ratio",
    [(SchemeKind(tag), None) for tag in ("linear", "random", "gray", "dfat-gray")]
    + [(SchemeKind.HART, Fraction(1, 2))],
)
def test_full_pass_of_an_empty_tree_relabels_nothing(kind, ratio):
    assigner = AddressAssigner(SchemeConfig(kind, 8, ratio), num_nodes=63)
    assert assigner.full_pass(AvlTree()) == []
    assert assigner.indexed_nodes == 0


def test_full_pass_claims_changed_nodes_in_preorder():
    """Insert-time addresses only, no re-addressing at rotations (hart
    1/2 at width 5, T = 3): one sweep then moves nodes into and out of
    the linear region and past the deepest level the width can rank.
    Linear and spare values depend on the order of the claims, and the
    expected list is the left-first preorder one."""
    assigner = AddressAssigner(
        SchemeConfig(SchemeKind.HART, 5, Fraction(1, 2)), num_nodes=26)
    tree = AvlTree()
    for key in gen_dataset(26, 3):
        tree.insert(key, on_attach=assigner.assign_on_insert)
    depth = {node: len(path) for node, path in tree.nodes_with_paths()}
    changed = assigner.full_pass(tree)
    assert [(node.key, old, new) for node, old, new in changed] == [
        (10, 21, 6), (3, 8, 7), (1, 4, 15), (8, 7, 8), (7, 18, 3), (9, 22, 4),
        (13, 17, 9), (12, 6, 21), (14, 3, 18), (19, 9, 27), (17, 15, 30),
        (21, 27, 26), (20, 30, 17), (22, 26, 20),
    ]

    def keys(source):
        return [node.key for node, _, _ in changed
                if assigner.records[node].source == source]

    assert keys(SOURCE_LINEAR) == [10, 3, 8, 13]
    assert keys(SOURCE_SPARE) == [7, 9, 20, 22]
    assert [node.key for node, _, _ in changed if depth[node] >= 5] == [20, 22]


@pytest.mark.parametrize(
    "kind, ratio, indexed",
    [
        (SchemeKind.GRAY, None, 15),
        (SchemeKind.DFAT_GRAY, None, 15),
        (SchemeKind.HART, Fraction(1, 4), 14),
        (SchemeKind.HART, Fraction(1, 2), 12),
        (SchemeKind.HART, Fraction(3, 4), 8),
        (SchemeKind.LINEAR, None, 0),
    ],
)
def test_full_pass_counts_nodes_indexed_below_linear_region(kind, ratio, indexed):
    """One sweep over a balanced 15-node tree (H = 4) computes the index
    of every node outside the linear region: 15 - (2**T - 1) for hart at
    T = 1, 2, 3, all 15 for the positional schemes, none for linear."""
    runner = feed(
        make_runner(kind, 6, ratio=ratio, n=15), balanced_order(15)
    )
    assert runner.ledger.total_rotations == 0
    assert runner.assigner.indexed_nodes == 0
    runner.assigner.full_pass(runner.tree)
    assert runner.assigner.indexed_nodes == indexed


def test_depth_overflow_falls_back_to_spare_and_counts():
    assigner = AddressAssigner(SchemeConfig(SchemeKind.DFAT_GRAY, 4), num_nodes=31)
    deep_path = (0, 1, 0, 1)  # depth 4 does not fit 4 levels
    value = assigner.assign_on_insert("node", len(deep_path), heap_id_of(deep_path))
    assert assigner.overflow_fallbacks == 1
    assert assigner.records["node"].source == SOURCE_SPARE
    assert value == 0


def test_gray_scheme_uses_level_order_positions():
    runner = make_runner(SchemeKind.GRAY, 5, n=7)
    feed(runner, balanced_order(7))
    for node, path in runner.tree.nodes_with_paths():
        rec = runner.assigner.records[node]
        pos = 1
        for step in path:
            pos = (pos << 1) | step
        assert rec.addr == binary_to_gray(pos - 1)
