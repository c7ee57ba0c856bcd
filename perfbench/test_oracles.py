"""Each benchmark check passes on hartsim's results and fails once a
result is corrupted.

    python3 -m pytest perfbench/test_oracles.py
"""

import csv
import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
from hartsim import cli, harness  # noqa: E402
from hartsim.accounting import AccountingConfig  # noqa: E402
from hartsim.addressing import AddressAssigner, SchemeConfig, SchemeKind  # noqa: E402

WIDTH = 10
SEED = 3
HALF = Fraction(1, 2)


def keys(width=WIDTH, trial=0):
    n = harness.nodes_for_width(width)
    return harness.gen_dataset(n, harness.dataset_seed(SEED, width, trial))


def finished_runner(kind, ratio=None):
    ks = keys()
    runner = harness.TrialRunner(
        SchemeConfig(kind, WIDTH, ratio, seed=SEED), AccountingConfig(), num_nodes=len(ks)
    )
    runner.run(ks)
    return runner


def positional_records(runner):
    return [
        (node, runner.assigner.records[node])
        for node, _ in oracles.tree_paths(runner.tree.root)
        if runner.assigner.records[node].source == "positional"
    ]


def test_rank_tables_are_preorder_and_breadth_first():
    dfat = oracles.dfat_rank_table(3)
    assert [p for p, _ in sorted(dfat.items(), key=lambda item: item[1])] == [
        (), (0,), (0, 1), (0, 0), (1,), (1, 1), (1, 0)
    ]
    assert oracles.level_order_table(2) == {(): 0, (0,): 1, (1,): 2}


def test_address_check_catches_a_moved_address():
    runner = finished_runner(SchemeKind.HART, HALF)
    table = oracles.dfat_rank_table(WIDTH)
    assert oracles.check_addresses(runner, table) == []
    (_, first), (_, second) = positional_records(runner)[:2]
    first.addr = second.addr
    errors = oracles.check_addresses(runner, table)
    assert any("share address" in e for e in errors)
    assert any("not the Gray code" in e for e in errors)


def test_address_check_catches_the_null_word():
    runner = finished_runner(SchemeKind.RANDOM)
    assert oracles.check_addresses(runner) == []
    node = runner.tree.root
    runner.assigner.records[node].addr = (1 << WIDTH) - 1
    assert any("outside" in e for e in oracles.check_addresses(runner))


def test_address_check_tells_gray_from_dfat_order():
    runner = finished_runner(SchemeKind.GRAY)
    assert oracles.check_addresses(runner, oracles.level_order_table(WIDTH)) == []
    assert oracles.check_addresses(runner, oracles.dfat_rank_table(WIDTH)) != []


def snapshot_errors(kind, ratio=None):
    ks = keys()
    runner = harness.TrialRunner(
        SchemeConfig(kind, WIDTH, ratio, seed=SEED), AccountingConfig(), num_nodes=len(ks)
    )
    return oracles.snapshot_trial(runner, ks)


def test_snapshot_oracle_catches_an_unrecorded_relabel(monkeypatch):
    assert snapshot_errors(SchemeKind.HART, HALF) == []
    rebind = AddressAssigner.rebind_moved
    monkeypatch.setattr(
        AddressAssigner, "rebind_moved", lambda self, moved: rebind(self, moved)[1:]
    )
    assert any("snapshot diff" in e for e in snapshot_errors(SchemeKind.HART, HALF))


def test_snapshot_oracle_catches_a_miscounted_ledger(monkeypatch):
    assert snapshot_errors(SchemeKind.LINEAR) == []
    record = harness.record_rotation

    def record_one_more(event, relabels, rewrites, ledger, acct):
        record(event, relabels, rewrites, ledger, acct)
        ledger.total_flips += 1

    monkeypatch.setattr(harness, "record_rotation", record_one_more)
    assert any("ledger total" in e for e in snapshot_errors(SchemeKind.LINEAR))


def cell_ledgers(tags, mode=harness.INCREMENTAL):
    specs = {
        tag: harness.SchemeSpec(SchemeKind.HART, ratio)
        if ratio else harness.SchemeSpec(SchemeKind(tag))
        for tag, ratio in tags.items()
    }
    return {
        tag: harness.run_cell(WIDTH, spec, 1, SEED, reassign_mode=mode).ledger
        for tag, spec in specs.items()
    }


def test_rotation_check_catches_a_moved_rotation():
    ledgers = cell_ledgers({"linear": None, "hart(1/2)": HALF})
    assert oracles.check_same_rotations(ledgers, [keys()]) == []
    levels = ledgers["linear"].rotations_per_level
    low, high = min(levels), max(levels)
    levels[low] -= 1
    levels[high] += 1
    assert len(oracles.check_same_rotations(ledgers, [keys()])) == 1


def test_flip_ordering_catches_each_broken_claim():
    good = {"hart(1/2)": 3.6, "random": 17.0, "linear": 13.0, "dfat-gray": 3.2}
    assert oracles.check_flip_ordering(good) == []
    for tag, value in (("random", 7.0), ("linear", 5.9), ("dfat-gray", 3.8)):
        assert len(oracles.check_flip_ordering({**good, tag: value})) == 1


FULL_TAGS = {"dfat-gray": None, "hart(1/4)": Fraction(1, 4), "hart(1/2)": HALF,
             "hart(3/4)": Fraction(3, 4)}


def test_full_pass_check_catches_changed_work_and_flips():
    full = cell_ledgers(FULL_TAGS, harness.FULL_PASS)
    incremental = cell_ledgers(FULL_TAGS)
    args = (incremental, FULL_TAGS, [keys()], WIDTH)
    assert oracles.check_full_pass(full, *args) == []

    more_work = dict(full)
    more_work["hart(1/2)"] = dataclasses.replace(
        full["hart(1/2)"], indexed_nodes=full["hart(1/2)"].indexed_nodes + 1
    )
    errors = oracles.check_full_pass(more_work, *args)
    assert len(errors) == 1 and "nodes at depths" in errors[0]

    same_work = dict(full)
    same_work["hart(1/4)"] = dataclasses.replace(
        full["hart(1/4)"], indexed_nodes=full["dfat-gray"].indexed_nodes
    )
    assert any("strictly" in e for e in oracles.check_full_pass(same_work, *args))

    other_flips = dict(full)
    other_flips["dfat-gray"] = dataclasses.replace(
        full["dfat-gray"], total_flips=full["dfat-gray"].total_flips + 1
    )
    assert any("differs" in e for e in oracles.check_full_pass(other_flips, *args))


def test_histogram_check_catches_a_changed_level():
    permutations = [keys(trial=t) for t in range(3)]
    hist = harness.rotations_histogram(WIDTH, 3, SEED)
    assert oracles.check_histogram(hist, permutations) == []
    level = max(hist, key=hist.get)
    assert oracles.check_histogram({**hist, level: hist[level] + 1 / 3}, permutations)


def test_cli_rows_check_catches_a_changed_value_and_a_lost_row(tmp_path):
    argv = ["bench", "--bits", "8-9", "--schemes", "all", "--trials", "2",
            "--seed", str(SEED), "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    with open(tmp_path / "bench.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    config = harness.ExperimentConfig(
        widths=[8, 9],
        schemes=[harness.SchemeSpec(kind, HALF if kind is SchemeKind.HART else None)
                 for kind in SchemeKind],
        trials=2, base_seed=SEED,
    )
    cells = harness.run_experiment(config)
    assert oracles.check_cli_rows(rows, cells, 2, SEED) == []

    changed = [dict(row) for row in rows]
    mean_row = next(r for r in changed if r["metric"] == "mean_flips_per_rotation")
    mean_row["value"] = repr(float(mean_row["value"]) + 1e-9)
    assert len(oracles.check_cli_rows(changed, cells, 2, SEED)) == 1
    assert len(oracles.check_cli_rows(rows[1:], cells, 2, SEED)) == 1
    assert oracles.check_cli_rows(rows, cells, 2, SEED + 1) != []
