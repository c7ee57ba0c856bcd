from fractions import Fraction

import pytest

from conftest import full_snapshot, snapshot_flip_diff
from hartsim.accounting import (
    AccountingConfig,
    FlipLedger,
    WordWrite,
    bit_flips,
    record_rotation,
)
from hartsim.addressing import SchemeConfig, SchemeKind
from hartsim.avl import RotationEvent
from hartsim import harness
from hartsim.harness import (
    DECOMPOSED,
    FULL_PASS,
    INCREMENTAL,
    PER_CASE,
    TrialRunner,
    gen_dataset,
    nodes_for_width,
)


def test_word_write_rejects_noop():
    with pytest.raises(ValueError):
        WordWrite(("x",), 3, 3)


def test_accounting_config_needs_a_category():
    with pytest.raises(ValueError):
        AccountingConfig(False, False)


def _run_fixture(kind, width, accounting, keys, n=None):
    scheme = SchemeConfig(kind, width, Fraction(1, 2) if kind is SchemeKind.HART else None)
    runner = TrialRunner(scheme, accounting, num_nodes=n or len(keys))
    for key in keys:
        runner.insert(key)
    return runner


def test_linear_three_node_fixture_counts_root_slot_only():
    """Ascending 1,2,3 under linear addressing at width 3: the only
    surviving pointer-field rewrite is the root slot going from the
    address of key 1 (0) to the address of key 2 (1): one flip."""
    runner = _run_fixture(SchemeKind.LINEAR, 3, AccountingConfig(), [1, 2, 3])
    assert runner.ledger.total_rotations == 1
    assert runner.ledger.total_flips == 1
    assert runner.ledger.rotations_per_level == {1: 1}
    assert runner.ledger.flips_per_level == {1: 1}


def test_zero_flip_rotation_still_counts():
    """The same rotation under DFAT-Gray rewrites no surviving pointer
    field (the root slot's word is position-bound), yet it is counted."""
    runner = _run_fixture(SchemeKind.DFAT_GRAY, 3, AccountingConfig(), [1, 2, 3])
    assert runner.ledger.total_rotations == 1
    assert runner.ledger.total_flips == 0


def test_relabel_accounting_of_three_node_fixture():
    """Relabels for the DFAT-Gray fixture are 0->1, 6->0, 1->6: 1+2+3
    flips, visible only when the relabel category is enabled."""
    relabel_only = _run_fixture(
        SchemeKind.DFAT_GRAY, 3, AccountingConfig(False, True), [1, 2, 3]
    )
    assert relabel_only.ledger.total_flips == 6
    both = _run_fixture(
        SchemeKind.DFAT_GRAY, 3, AccountingConfig(True, True), [1, 2, 3]
    )
    assert both.ledger.total_flips == 6


def test_identical_rotations_double_every_field():
    event = RotationEvent("RR", 2, 2, [], None)  # pivot at path (LEFT,)
    flips = bit_flips(0, 3)  # one pointer rewrite 0 -> 3
    single = FlipLedger()
    record_rotation(event, 0, flips, single, AccountingConfig())
    doubled = FlipLedger()
    for _ in range(2):
        record_rotation(event, 0, flips, doubled, AccountingConfig())
    assert doubled.total_flips == 2 * single.total_flips
    assert doubled.total_rotations == 2 * single.total_rotations
    assert doubled.flips_per_level == {2: 2 * single.flips_per_level[2]}
    assert doubled.rotations_per_level == {2: 2 * single.rotations_per_level[2]}


def test_ledger_merge_equals_concatenated_stream():
    acct = AccountingConfig()
    event_a = RotationEvent("RR", 1, 1, [], None)  # at the root
    event_b = RotationEvent("LL", 3, 5, [], None)  # at path (LEFT, RIGHT)
    flips_a = bit_flips(0, 7)
    flips_b = bit_flips(1, 2)

    combined = FlipLedger()
    record_rotation(event_a, 0, flips_a, combined, acct)
    record_rotation(event_b, 0, flips_b, combined, acct)

    part_a, part_b = FlipLedger(), FlipLedger()
    record_rotation(event_a, 0, flips_a, part_a, acct)
    record_rotation(event_b, 0, flips_b, part_b, acct)
    # Per-trial work counts are copied in after the run and summed too.
    part_a.indexed_nodes, part_b.indexed_nodes = 5, 11
    combined.indexed_nodes = 16
    merged = part_a.merge(part_b)
    assert merged == combined
    # merge is commutative
    assert part_b.merge(part_a) == combined


def test_ledger_level_sums_match_totals():
    runner = _run_fixture(
        SchemeKind.DFAT_GRAY, 8, AccountingConfig(), gen_dataset(63, 3), n=63
    )
    ledger = runner.ledger
    assert sum(ledger.rotations_per_level.values()) == ledger.total_rotations
    assert sum(ledger.flips_per_level.values()) == ledger.total_flips


def test_bit_flips():
    assert bit_flips(0, 0) == 0
    assert bit_flips(0b101, 0b110) == 2


ORACLE_SCHEMES = (
    (SchemeKind.LINEAR, None),
    (SchemeKind.RANDOM, None),
    (SchemeKind.GRAY, None),
    (SchemeKind.DFAT_GRAY, None),
    (SchemeKind.HART, Fraction(1, 2)),
)

ORACLE_ACCOUNTINGS = (
    AccountingConfig(True, False),
    AccountingConfig(True, True),
    AccountingConfig(False, True),
)


def run_with_snapshot_oracle(width, kind, ratio, seed, acct, mode=INCREMENTAL,
                             rotation_counting=DECOMPOSED, num_nodes=None):
    """Run one trial comparing event-driven flips against full-snapshot
    diffs around every single rotation, both the writes handed to the
    rotation hook and the ledger's total; returns the rotation count."""
    n = num_nodes or nodes_for_width(width)
    scheme = SchemeConfig(kind, width, ratio, seed=seed * 31 + 1)
    runner = TrialRunner(scheme, acct, mode, num_nodes=n,
                         rotation_counting=rotation_counting)
    state = {"count": 0, "diffs": 0}

    def before(subtree_root, kind_):
        state["pre"] = full_snapshot(runner, acct)

    def after(event, relabel_writes, rewrites):
        post = full_snapshot(runner, acct)
        recorded = 0
        if acct.count_pointer_rewrites:
            recorded += sum(bit_flips(w.old, w.new) for w in rewrites)
        if acct.count_node_relabels:
            recorded += sum(bit_flips(w.old, w.new) for w in relabel_writes)
        diff = snapshot_flip_diff(state["pre"], post)
        assert diff == recorded
        state["diffs"] += diff
        state["count"] += 1

    runner.before_rotation_hook = before
    runner.after_rotation_hook = after
    for key in gen_dataset(n, seed):
        runner.insert(key)
    # The ledger is summed apart from the hook's writes: check it too.
    assert runner.ledger.total_flips == state["diffs"]
    return state["count"]


def test_snapshot_oracle_small():
    total = 0
    for kind, ratio in ORACLE_SCHEMES:
        for acct in ORACLE_ACCOUNTINGS:
            total += run_with_snapshot_oracle(8, kind, ratio, 7, acct)
    assert total > 100


@pytest.mark.parametrize("counting", [PER_CASE, DECOMPOSED])
@pytest.mark.parametrize("mode", [INCREMENTAL, FULL_PASS])
@pytest.mark.parametrize("acct", ORACLE_ACCOUNTINGS,
                         ids=["pointer", "both", "relabel"])
@pytest.mark.parametrize("kind, ratio", ORACLE_SCHEMES,
                         ids=[kind.value for kind, _ in ORACLE_SCHEMES])
def test_hooked_and_unhooked_trials_book_the_same_ledger(
        kind, ratio, acct, mode, counting, monkeypatch):
    """The ledger does not depend on whether a rotation hook is set, and
    an unhooked trial builds no ``WordWrite`` at all."""
    built = []

    def counting_write(*args):
        built.append(args)
        return WordWrite(*args)

    monkeypatch.setattr(harness, "WordWrite", counting_write)
    n = nodes_for_width(8)
    scheme = SchemeConfig(kind, 8, ratio, seed=5)
    ledgers = []
    for hook in (None, lambda event, relabels, rewrites: None):
        runner = TrialRunner(scheme, acct, mode, num_nodes=n,
                             rotation_counting=counting)
        runner.after_rotation_hook = hook
        runner.run(gen_dataset(n, 11))
        ledgers.append(runner.ledger)
        if hook is None:
            assert built == []
    unhooked, hooked = ledgers
    assert unhooked.total_rotations > 0
    assert unhooked == hooked
    assert built, "the hooked trial handed over no write"
