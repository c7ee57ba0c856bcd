import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from importlib.util import find_spec
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import avl_defect
from hartsim.accounting import AccountingConfig
from hartsim.addressing import SchemeConfig, SchemeKind, Threshold
from hartsim.avl import AvlTree
from hartsim import cli, harness
from hartsim.harness import (
    MAX_NODES,
    DECOMPOSED,
    DEFAULT_RATIOS,
    FULL_PASS,
    INCREMENTAL,
    PER_CASE,
    ExperimentConfig,
    SchemeSpec,
    balanced_insertion_order,
    compare_thresholds,
    dataset_seed,
    gen_dataset,
    nodes_for_width,
    rotations_histogram,
    rotations_histograms,
    run_cell,
    run_experiment,
    run_trial,
    scheme_seed,
)


def test_gen_dataset_single_item():
    assert gen_dataset(1, 12345) == [0]


def test_gen_dataset_determinism_and_permutation():
    a = gen_dataset(5, 7)
    b = gen_dataset(5, 7)
    c = gen_dataset(5, 8)
    assert a == b
    assert a != c
    big = gen_dataset(10_000, 3)
    assert sorted(big) == list(range(10_000))


def _swap_shuffle(n, seed):
    """Reference: the explicit swap loop that Random.shuffle must reproduce."""
    items = list(range(n))
    rng = random.Random(seed)
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(n=st.integers(1, 4095), seed=st.integers(0, 2**64 - 1))
def test_gen_dataset_matches_the_swap_loop(n, seed):
    assert gen_dataset(n, seed) == _swap_shuffle(n, seed)


def test_gen_dataset_rejects_empty():
    with pytest.raises(ValueError):
        gen_dataset(0, 1)


def test_seed_derivation_is_pure_and_distinct():
    assert dataset_seed(0, 8, 0) == dataset_seed(0, 8, 0)
    assert dataset_seed(0, 8, 0) != dataset_seed(0, 8, 1)
    assert dataset_seed(0, 8, 0) != dataset_seed(0, 9, 0)
    assert scheme_seed(0, 8, "hart", Fraction(1, 2), 3) == scheme_seed(
        0, 8, "hart", Fraction(1, 2), 3
    )
    assert scheme_seed(0, 8, "hart", Fraction(1, 2), 3) != scheme_seed(
        0, 8, "hart", Fraction(1, 4), 3
    )


def test_seeds_are_sha256_of_their_parts():
    """The seeds hash with whichever SHA-256 the harness found; each one
    is the first 64 bits of hashlib's digest of its '|'-joined parts."""
    def reference(*parts):
        return int(hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()[:16], 16)

    schemes = {(spec.tag, spec.threshold_ratio)
               for ratio in DEFAULT_RATIOS for spec in cli.parse_schemes("all", ratio)}
    assert len(schemes) == 7
    for base_seed in (0, 7, -1, 2**40):
        for width in range(8, 25):
            for trial in range(100):
                assert dataset_seed(base_seed, width, trial) == reference(
                    "dataset", base_seed, width, trial)
                for tag, ratio in schemes:
                    assert scheme_seed(base_seed, width, tag, ratio, trial) == reference(
                        "scheme", base_seed, width, tag, ratio, trial)


def test_cli_import_loads_no_openssl():
    """Seeds need no OpenSSL: a fresh interpreter that imports the CLI
    leaves ``_hashlib`` unloaded wherever CPython's own SHA-256 exists."""
    if find_spec("_sha2") is None and find_spec("_sha256") is None:
        pytest.skip("this interpreter has no _sha2 or _sha256 module")
    code = "import sys, hartsim.cli; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True,
                         env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])})
    assert out.stdout.strip() == "False"


def test_nodes_for_width_pairing():
    assert nodes_for_width(8) == 63
    assert nodes_for_width(21) == (1 << 19) - 1


def test_run_trial_is_deterministic():
    scheme = SchemeConfig(SchemeKind.DFAT_GRAY, 8, seed=99)
    first, _ = run_trial(scheme, seed=4)
    second, _ = run_trial(scheme, seed=4)
    assert first == second
    assert first.total_rotations > 0
    assert len(first.rotations_per_level) > 1


def test_rotation_structure_is_scheme_independent():
    """All schemes see the same key order for a (width, trial), so their
    rotation histograms agree even though flips differ."""
    seed = dataset_seed(0, 8, 5)
    ledgers = {}
    for kind in (SchemeKind.LINEAR, SchemeKind.RANDOM, SchemeKind.DFAT_GRAY):
        scheme = SchemeConfig(kind, 8, seed=1)
        ledgers[kind], _ = run_trial(scheme, seed)
    base = ledgers[SchemeKind.LINEAR]
    for other in ledgers.values():
        assert other.rotations_per_level == base.rotations_per_level


def test_trial_rotations_bounded():
    scheme = SchemeConfig(SchemeKind.LINEAR, 8)
    ledger, _ = run_trial(scheme, seed=0, rotation_counting=DECOMPOSED)
    assert ledger.total_rotations < 2 * 63
    assert sum(ledger.rotations_per_level.values()) == ledger.total_rotations


def test_histogram_matches_trial_ledger():
    hist = rotations_histogram(8, 1, base_seed=3)
    scheme = SchemeConfig(SchemeKind.LINEAR, 8)
    ledger, _ = run_trial(scheme, dataset_seed(3, 8, 0))
    assert sum(hist.values()) == ledger.total_rotations
    assert {level: float(count) for level, count in ledger.rotations_per_level.items()} == hist


def test_histogram_counting_conventions():
    per_case = rotations_histogram(8, 5, base_seed=0)
    decomposed = rotations_histogram(8, 5, base_seed=0, rotation_counting=DECOMPOSED)
    assert sum(decomposed.values()) > sum(per_case.values())


def test_histograms_of_several_widths_merge_by_position():
    """One pool for all widths; a width given twice gets its series twice."""
    assert rotations_histograms([8, 9, 8], 3, base_seed=5, jobs=2) == [
        rotations_histogram(8, 3, base_seed=5),
        rotations_histogram(9, 3, base_seed=5),
        rotations_histogram(8, 3, base_seed=5),
    ]


def test_per_case_and_decomposed_agree_on_flips():
    scheme = SchemeConfig(SchemeKind.DFAT_GRAY, 8)
    seed = dataset_seed(0, 8, 1)
    per_case, _ = run_trial(scheme, seed, rotation_counting=PER_CASE)
    decomposed, _ = run_trial(scheme, seed, rotation_counting=DECOMPOSED)
    assert per_case.total_flips == decomposed.total_flips
    assert per_case.total_rotations < decomposed.total_rotations


def test_run_cell_parallel_matches_serial():
    spec = SchemeSpec(SchemeKind.HART, Fraction(1, 2))
    serial = run_cell(8, spec, trials=6, base_seed=2, jobs=1)
    parallel = run_cell(8, spec, trials=6, base_seed=2, jobs=2)
    assert serial.ledger == parallel.ledger
    assert serial.mean_flips_per_rotation == parallel.mean_flips_per_rotation


@pytest.mark.parametrize("trials", [0, -2])
def test_trial_counts_below_one_are_rejected(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_cell(8, SchemeSpec(SchemeKind.DFAT_GRAY), trials, 0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        compare_thresholds(63, trials=trials)


def test_run_experiment_one_pool_matches_serial_and_per_cell_runs():
    schemes = [SchemeSpec(SchemeKind.DFAT_GRAY), SchemeSpec(SchemeKind.HART, Fraction(1, 2))]
    config = ExperimentConfig(widths=[8, 9], schemes=schemes, trials=3, base_seed=4)
    serial = run_experiment(config, jobs=1)
    parallel = run_experiment(config, jobs=2)
    grid = [(width, spec) for width in (8, 9) for spec in schemes]
    assert [(c.width, c.scheme_tag) for c in parallel] == [(w, s.tag) for w, s in grid]
    assert [c.ledger for c in serial] == [c.ledger for c in parallel]
    assert [c.ledger for c in serial] == [
        run_cell(width, spec, trials=3, base_seed=4).ledger for width, spec in grid
    ]


def test_compare_thresholds_structure():
    cells = compare_thresholds(63, trials=2, base_seed=1)
    ratios = [cell.threshold_ratio for cell in cells]
    assert ratios == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    thresholds = [Threshold.for_tree(63, ratio) for ratio in ratios]
    assert {threshold.level for threshold in thresholds} == {2, 3, 5}
    for cell, threshold in zip(cells, thresholds):
        assert threshold.height == 6
        assert cell.width == 8
        assert cell.trials == 2
        assert cell.scheme_tag == "hart"
        assert cell.mean_flips_per_rotation is not None


def test_compare_thresholds_clamps_tiny_tree():
    cells = compare_thresholds(1, trials=1, base_seed=0)
    assert len(cells) == 3
    for cell in cells:
        assert Threshold.for_tree(1, cell.threshold_ratio).level == 1
        assert cell.mean_flips_per_rotation is None  # no rotations


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(widths=[7], schemes=[SchemeSpec(SchemeKind.LINEAR)])
    with pytest.raises(ValueError):
        ExperimentConfig(widths=[8], schemes=[], trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(
            widths=[8], schemes=[], reassign_mode="bogus"
        )
    with pytest.raises(ValueError):
        SchemeSpec(SchemeKind.LINEAR, Fraction(1, 2))
    with pytest.raises(ValueError, match="outside"):
        SchemeSpec(SchemeKind.HART, Fraction(3, 2))
    with pytest.raises(ValueError, match="outside"):
        SchemeSpec(SchemeKind.HART, 0)
    with pytest.raises(ValueError):
        SchemeSpec(SchemeKind.HART)  # missing ratio
    assert SchemeSpec(SchemeKind.HART, 0.5).threshold_ratio == Fraction(1, 2)


def test_balanced_insertion_order_builds_without_rotations():
    assert balanced_insertion_order(7) == [3, 1, 5, 0, 2, 4, 6]
    for n in (1, 2, 3, 10, 33, 64):
        tree = AvlTree()
        for key in balanced_insertion_order(n):
            assert tree.insert(key) == []
        assert avl_defect(tree) is None  # so in-order is sorted order
        assert sorted(node.key for node, _ in tree.nodes_with_paths()) == list(range(n))


def test_full_pass_mode_trial_matches_incremental():
    scheme = SchemeConfig(SchemeKind.HART, 8, Fraction(1, 2))
    seed = dataset_seed(5, 8, 0)
    inc, _ = run_trial(scheme, seed, reassign_mode=INCREMENTAL)
    full, _ = run_trial(scheme, seed, reassign_mode=FULL_PASS)
    # Identical results at a different cost: the sweep re-indexes the
    # whole tree on every rotation, the incremental path the moved nodes.
    assert inc.indexed_nodes < full.indexed_nodes
    assert replace(full, indexed_nodes=inc.indexed_nodes) == inc


def test_random_never_beats_dfat_gray_on_flips():
    # statistical ordering over 20 paired trials per width
    for width in (8, 9):
        totals = {}
        for kind in (SchemeKind.RANDOM, SchemeKind.DFAT_GRAY):
            spec = SchemeSpec(kind)
            cell = run_cell(width, spec, trials=20, base_seed=1)
            totals[kind] = cell.mean_flips_per_rotation
        assert totals[SchemeKind.RANDOM] >= totals[SchemeKind.DFAT_GRAY]


def test_trees_too_large_to_build_fail_before_any_allocation(monkeypatch, capsys):
    """Every entry point checks the tree size against ``MAX_NODES``
    before it builds a key list, so no width or --nodes value can run the
    machine out of memory; every width up to 16 stays accepted."""
    def no_dataset(n, seed):
        raise AssertionError(f"gen_dataset({n}) called for a tree that cannot be built")

    monkeypatch.setattr(harness, "gen_dataset", no_dataset)
    widest = MAX_NODES.bit_length() + 2
    assert nodes_for_width(widest) == MAX_NODES
    assert nodes_for_width(16) == 16383
    ExperimentConfig(widths=list(range(8, widest + 1)), schemes=[])
    for width in (widest + 1, 63, 200):
        with pytest.raises(ValueError, match="does not fit in memory"):
            ExperimentConfig(widths=[8, width], schemes=[])
        with pytest.raises(ValueError, match="does not fit in memory"):
            run_cell(width, SchemeSpec(SchemeKind.LINEAR), trials=1, base_seed=0)
        with pytest.raises(ValueError, match="does not fit in memory"):
            rotations_histograms([8, width], trials=1)
    with pytest.raises(ValueError, match="does not fit in memory"):
        compare_thresholds(MAX_NODES + 1, trials=1)
    for num_nodes in (MAX_NODES + 1, 10**9, 0):
        with pytest.raises(ValueError, match="does not fit in memory"):
            run_trial(SchemeConfig(SchemeKind.LINEAR, 8), 1, num_nodes=num_nodes)
    with pytest.raises(ValueError, match="does not fit in memory"):
        cli.parse_bits(f"20-{widest + 1}")
    for argv in (["bench", "--bits", f"8-{widest + 1}"],
                 ["rotations", "--bits", "64"],
                 ["compare-thresholds", "--nodes", str(MAX_NODES + 1)],
                 ["compare-thresholds", "--nodes", "0"],
                 ["compare-thresholds", "--bits", "40"]):
        assert cli.main(argv + ["--trials", "1"]) == 1, argv
        assert "error" in capsys.readouterr().err
