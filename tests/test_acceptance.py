"""Acceptance gate.

Each test implements one acceptance criterion at its stated tolerance
and prints one ``ACCEPTANCE <n> [PASS|FAIL]`` line (run pytest with
``-rA`` or ``-s`` to see the lines for passing criteria too).

Heavy statistical criteria share their trial grids through module-scoped
fixtures; everything is seeded, so reruns reproduce identical numbers.
"""

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from conftest import address_map, avl_defect, gray_to_binary, tree_height
from hartsim.accounting import AccountingConfig
from hartsim.addressing import (
    SchemeConfig,
    SchemeKind,
    binary_to_gray,
    threshold_from_ratio,
    tree_height_estimate,
)
from hartsim.avl import AvlTree
from hartsim.cli import main as cli_main
from hartsim.harness import (
    FULL_PASS,
    INCREMENTAL,
    ExperimentConfig,
    SchemeSpec,
    TrialRunner,
    dataset_seed,
    gen_dataset,
    nodes_for_width,
    rotations_histogram,
    run_cell,
    run_experiment,
)
from test_accounting import run_with_snapshot_oracle

BASE_SEED = 0
JOBS = 2


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" :: {detail}" if detail else ""
    print(f"ACCEPTANCE {number} [{status}] {description}{suffix}")
    return ok


# ----------------------------------------------------------------------
# 1. Gray adjacency and bijectivity at width 16, exhaustive
# ----------------------------------------------------------------------
def test_criterion_1_gray_adjacency_and_bijectivity():
    width = 16
    size = 1 << width
    codes = [k ^ (k >> 1) for k in range(size)]
    adjacency_ok = all(
        (codes[k] ^ codes[k + 1]).bit_count() == 1 for k in range(size - 1)
    )
    bijection_ok = all(
        gray_to_binary(binary_to_gray(k, width)) == k for k in range(size)
    )
    ok = adjacency_ok and bijection_ok
    assert report(
        1,
        "gray adjacency + bijectivity over the full 16-bit range",
        ok,
        f"adjacency={adjacency_ok} bijectivity={bijection_ok}",
    )


# ----------------------------------------------------------------------
# 2. Height estimate and threshold formulas, exact
# ----------------------------------------------------------------------
def test_criterion_2_height_and_threshold_units():
    heights_ok = all(
        tree_height_estimate((1 << x) - 1) == x for x in range(6, 20)
    )
    thresholds_ok = (
        threshold_from_ratio(6, Fraction(1, 4)) == 2
        and threshold_from_ratio(6, Fraction(1, 2)) == 3
        and threshold_from_ratio(6, Fraction(3, 4)) == 5
        and threshold_from_ratio(1, Fraction(1, 4)) == 1
    )
    ok = heights_ok and thresholds_ok
    assert report(
        2,
        "height estimate over 2^x-1 for x in [6,19]; threshold worked values",
        ok,
        f"heights={heights_ok} thresholds={thresholds_ok}",
    )


# ----------------------------------------------------------------------
# 3. AVL integrity over 50 seeded trials at n = 2^12 - 1
# ----------------------------------------------------------------------
def _avl_integrity_trial(seed):
    n = (1 << 12) - 1
    tree = AvlTree()
    bound = 1.4405 * math.log2(n + 2)
    for key in gen_dataset(n, seed):
        tree.insert(key)
        violation = avl_defect(tree)
        if violation is not None:
            path, reason = violation
            return f"seed {seed}: {reason} at {path}"
        if tree_height(tree) > bound:
            return f"seed {seed}: height {tree_height(tree)} exceeds bound"
    # Strictly rising in-order keys (checked above) that are 0..n-1
    # make the in-order traversal range(n).
    if sorted(node.key for node, _ in tree.nodes_with_paths()) != list(range(n)):
        return f"seed {seed}: inorder traversal not sorted"
    return None


def test_criterion_3_avl_integrity():
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        problems = [p for p in pool.map(_avl_integrity_trial, range(50)) if p]
    ok = not problems
    assert report(
        3,
        "avl_defect() after every insert, height bound, inorder (50 trials, n=4095)",
        ok,
        problems[0] if problems else "all trials clean",
    )


# ----------------------------------------------------------------------
# 4. Event-driven flips equal full-snapshot diffs, every rotation
# ----------------------------------------------------------------------
def test_criterion_4_flip_oracle_equivalence():
    schemes = (
        (SchemeKind.LINEAR, None),
        (SchemeKind.RANDOM, None),
        (SchemeKind.GRAY, None),
        (SchemeKind.DFAT_GRAY, None),
        (SchemeKind.HART, Fraction(1, 2)),
    )
    accountings = (AccountingConfig(True, False), AccountingConfig(True, True))
    rotations = 0
    for kind, ratio in schemes:
        for acct in accountings:
            for seed in range(20):
                rotations += run_with_snapshot_oracle(
                    9, kind, ratio, seed, acct
                )
    assert report(
        4,
        "event flips == snapshot-diff flips (n=127, 20 seeds, 5 schemes, "
        "both accounting modes)",
        True,
        f"{rotations} rotations checked exactly",
    )


# ----------------------------------------------------------------------
# 5. Incremental and full-pass re-assignment are equivalent
# ----------------------------------------------------------------------
def test_criterion_5_incremental_equals_full_pass():
    n = (1 << 10) - 1
    width = 12
    mismatch = None
    for kind, ratio in ((SchemeKind.DFAT_GRAY, None), (SchemeKind.HART, Fraction(1, 2))):
        for seed in range(10):
            runners = [
                TrialRunner(
                    SchemeConfig(kind, width, ratio, seed=seed),
                    AccountingConfig(),
                    mode,
                    num_nodes=n,
                )
                for mode in (INCREMENTAL, FULL_PASS)
            ]
            for key in gen_dataset(n, dataset_seed(BASE_SEED, width, seed)):
                for runner in runners:
                    runner.insert(key)
                if address_map(runners[0]) != address_map(runners[1]):
                    mismatch = f"{kind.value} seed {seed} diverged at key {key}"
                    break
            if mismatch:
                break
            if runners[0].ledger.total_flips != runners[1].ledger.total_flips:
                mismatch = f"{kind.value} seed {seed}: flip totals differ"
        if mismatch:
            break
    ok = mismatch is None
    assert report(
        5,
        "incremental == full-pass address maps after every insert "
        "(n=1023, 10 seeds, dfat-gray + hart 1/2)",
        ok,
        mismatch or "identical maps and flip totals",
    )


# ----------------------------------------------------------------------
# 6. Rotation distribution at width 8
# ----------------------------------------------------------------------
def test_criterion_6_rotation_distribution():
    hist = rotations_histogram(8, 100, BASE_SEED, jobs=JOBS)
    peak_level = max(hist, key=hist.__getitem__)
    peak_value = hist[peak_level]
    ok = 2 <= peak_level <= 4 and 3.0 <= peak_value <= 11.0
    assert report(
        6,
        "rotation histogram peaks at level 3 +- 1 with value in [3, 11] "
        "(width 8, 100 trials)",
        ok,
        f"peak level {peak_level}, value {peak_value:.2f}",
    )


# ----------------------------------------------------------------------
# 7 + 8. Flip ordering between schemes (shared trial grid)
# ----------------------------------------------------------------------
FLIP_TRIALS = 100


@pytest.fixture(scope="module")
def flip_means():
    grids = (
        (range(8, 15), [
            SchemeSpec(SchemeKind.DFAT_GRAY),
            SchemeSpec(SchemeKind.HART, Fraction(1, 4)),
            SchemeSpec(SchemeKind.HART, Fraction(1, 2)),
            SchemeSpec(SchemeKind.HART, Fraction(3, 4)),
        ]),
        ((10, 12, 14), [SchemeSpec(SchemeKind.RANDOM), SchemeSpec(SchemeKind.LINEAR)]),
    )
    means = {}
    for widths, specs in grids:
        config = ExperimentConfig(list(widths), specs, FLIP_TRIALS, BASE_SEED)
        for cell in run_experiment(config, jobs=JOBS):
            means[(cell.width, cell.scheme_tag, cell.threshold_ratio)] = (
                cell.mean_flips_per_rotation
            )
    return means


def test_criterion_7_hybrid_beats_random_and_linear(flip_means):
    failures = []
    for width in (10, 12, 14):
        hybrid = flip_means[(width, "hart", Fraction(1, 2))]
        random_mean = flip_means[(width, "random", None)]
        linear_mean = flip_means[(width, "linear", None)]
        vs_random = 1 - hybrid / random_mean
        vs_linear = 1 - hybrid / linear_mean
        if vs_random < 0.50:
            failures.append(f"w{width}: {vs_random:.1%} vs random < 50%")
        if vs_linear < 0.40:
            failures.append(f"w{width}: {vs_linear:.1%} vs linear < 40%")
    detail = "; ".join(
        f"w{w}: hart={flip_means[(w, 'hart', Fraction(1, 2))]:.3f} "
        f"rand={flip_means[(w, 'random', None)]:.3f} "
        f"lin={flip_means[(w, 'linear', None)]:.3f}"
        for w in (10, 12, 14)
    )
    ok = not failures
    assert report(
        7,
        "hart(1/2) flips >=50% below random and >=40% below linear "
        "(widths 10/12/14, 100 trials)",
        ok,
        "; ".join(failures) if failures else detail,
    ), failures


def test_criterion_8_threshold_monotonicity(flip_means):
    epsilon = 0.15
    failures = []
    for width in range(8, 15):
        dfat = flip_means[(width, "dfat-gray", None)]
        h25 = flip_means[(width, "hart", Fraction(1, 4))]
        h50 = flip_means[(width, "hart", Fraction(1, 2))]
        h75 = flip_means[(width, "hart", Fraction(3, 4))]
        if not dfat <= h25 + epsilon:
            failures.append(f"w{width}: dfat {dfat:.3f} > h25 {h25:.3f}+eps")
        if not h25 <= h50 + epsilon:
            failures.append(f"w{width}: h25 {h25:.3f} > h50 {h50:.3f}+eps")
        if not h50 <= h75 + epsilon:
            failures.append(f"w{width}: h50 {h50:.3f} > h75 {h75:.3f}+eps")
    ok = not failures
    assert report(
        8,
        "dfat-gray <= hart(1/4)+e <= hart(1/2)+e <= hart(3/4)+e, e=0.15 "
        "(widths 8-14, 100 trials)",
        ok,
        "; ".join(failures) if failures else "monotone at every width",
    ), failures


# ----------------------------------------------------------------------
# 9. Addressing cost ordering in the full-pass mode
# ----------------------------------------------------------------------
def test_criterion_9_cost_ordering_full_pass():
    """More linear levels mean less addressing work in the full-pass sweep.

    The work is the exact count of positional indices the sweep computes
    (``FlipLedger.indexed_nodes``): every node below the linear region
    has its index rebuilt from scratch on every rotation, and the linear
    region (at most 2**T - 1 nodes) is skipped.  The order must be
    strict; no gap size is required, since the linear region at low T is
    a tiny share of the tree.  Wall time is reported but not asserted:
    its run-to-run noise exceeds the real difference between the lower
    thresholds.
    """
    width = 14
    trials = 10
    work = {}
    walls = {}
    for spec in (
        SchemeSpec(SchemeKind.DFAT_GRAY),
        SchemeSpec(SchemeKind.HART, Fraction(1, 4)),
        SchemeSpec(SchemeKind.HART, Fraction(1, 2)),
        SchemeSpec(SchemeKind.HART, Fraction(3, 4)),
    ):
        cell = run_cell(
            width, spec, trials, BASE_SEED, reassign_mode=FULL_PASS, jobs=JOBS
        )
        key = spec.threshold_ratio or "dfat"
        work[key] = cell.ledger.indexed_nodes
        walls[key] = cell.wall_seconds_per_trial
    h75, h50, h25 = Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)
    failures = []
    for label, cheaper, dearer in (
        ("hart(3/4) < hart(1/2)", h75, h50),
        ("hart(1/2) < hart(1/4)", h50, h25),
        ("hart(1/4) < dfat-gray", h25, "dfat"),
    ):
        if not work[cheaper] < work[dearer]:
            failures.append(
                f"{label} violated: {work[cheaper]} >= {work[dearer]}"
            )
    ok = not failures
    assert report(
        9,
        "full-pass nodes indexed ordered hart(3/4) < hart(1/2) < "
        "hart(1/4) < dfat-gray (width 14, 10 trials)",
        ok,
        f"nodes indexed: h75={work[h75]} h50={work[h50]} h25={work[h25]} "
        f"dfat={work['dfat']}; seconds/trial, not asserted: "
        f"h75={walls[h75]:.2f} h50={walls[h50]:.2f} h25={walls[h25]:.2f} "
        f"dfat={walls['dfat']:.2f}"
        + ("; " + "; ".join(failures) if failures else ""),
    ), failures


# ----------------------------------------------------------------------
# 10. CLI determinism across runs and job counts
# ----------------------------------------------------------------------
def test_criterion_10_cli_determinism(tmp_path):
    outputs = []
    for name, jobs in (("a", "4"), ("b", "4"), ("c", "1")):
        outdir = tmp_path / name
        code = cli_main([
            "bench", "--bits", "8-12", "--schemes", "all", "--trials", "20",
            "--seed", "7", "--jobs", jobs, "--output-dir", str(outdir),
        ])
        assert code == 0
        with open(outdir / "bench.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        outputs.append([
            {**row, "value": "" if row["metric"] == "wall_time_seconds" else row["value"]}
            for row in rows
        ])
    ok = outputs[0] == outputs[1] == outputs[2]
    assert report(
        10,
        "bench CSV byte-stable across reruns and --jobs (modulo wall-time rows)",
        ok,
        f"{len(outputs[0])} rows compared",
    )
