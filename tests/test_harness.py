import hashlib
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartsim.accounting import AccountingConfig, FlipLedger
from hartsim.addressing import (SchemeConfig, SchemeKind, threshold_from_ratio,
                                 tree_height_estimate)
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


@pytest.mark.parametrize("counting", [PER_CASE, DECOMPOSED])
def test_histogram_matches_trial_ledger(counting):
    """The tree-only histogram averages the rotations that trial ledgers
    book, per level, under either counting."""
    trials = 3
    hist = rotations_histogram(8, trials, base_seed=3, rotation_counting=counting)
    scheme = SchemeConfig(SchemeKind.LINEAR, 8)
    merged = FlipLedger()
    for trial in range(trials):
        ledger, _ = run_trial(scheme, dataset_seed(3, 8, trial), rotation_counting=counting)
        merged = merged.merge(ledger)
    assert sum(merged.rotations_per_level.values()) == merged.total_rotations
    assert {level: count / trials
            for level, count in merged.rotations_per_level.items()} == hist


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
    height = tree_height_estimate(63)
    assert height == 6
    assert {threshold_from_ratio(height, ratio) for ratio in ratios} == {2, 3, 5}
    for cell in cells:
        assert cell.width == 8
        assert cell.trials == 2
        assert cell.scheme_tag == "hart"
        assert cell.mean_flips_per_rotation is not None


def test_compare_thresholds_clamps_tiny_tree():
    cells = compare_thresholds(1, trials=1, base_seed=0)
    assert len(cells) == 3
    for cell in cells:
        assert threshold_from_ratio(tree_height_estimate(1), cell.threshold_ratio) == 1
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
    for num_nodes in (MAX_NODES + 1, 10**9):
        with pytest.raises(ValueError, match="does not fit in memory"):
            run_trial(SchemeConfig(SchemeKind.LINEAR, 8), 1, num_nodes=num_nodes)
    with pytest.raises(ValueError, match=rf"^0 nodes outside \[1, {MAX_NODES}\]$"):
        run_trial(SchemeConfig(SchemeKind.LINEAR, 8), 1, num_nodes=0)
    with pytest.raises(ValueError, match="does not fit in memory"):
        cli.parse_bits(f"20-{widest + 1}")
    for argv in (["bench", "--bits", f"8-{widest + 1}"],
                 ["rotations", "--bits", "64"],
                 ["compare-thresholds", "--nodes", str(MAX_NODES + 1)],
                 ["compare-thresholds", "--nodes", "0"],
                 ["compare-thresholds", "--bits", "40"]):
        assert cli.main(argv + ["--trials", "1"]) == 1, argv
        assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the fan-out: forked workers, one strided share each
# ----------------------------------------------------------------------
def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_map_trials_runs_task_i_in_worker_i_mod_n(monkeypatch, jobs):
    """Outcomes equal the serial list, in task order; with N workers,
    task i ran in worker i mod N and never in this process, and no
    worker outlives the call."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)

    def fn(task):
        return harness._histogram_task((63, task, PER_CASE)), os.getpid()

    for count in range(1, 10):
        tasks = [dataset_seed(0, 8, trial) for trial in range(count)]
        outcomes = harness._map_trials(fn, tasks, jobs, 63)
        assert [hist for hist, _ in outcomes] == [fn(task)[0] for task in tasks]
        pids = [pid for _, pid in outcomes]
        workers = min(jobs, count)
        if workers < 2:
            assert pids == [os.getpid()] * count
        else:
            assert os.getpid() not in pids and len(set(pids)) == workers
            assert pids == [pids[i % workers] for i in range(count)]
        assert_no_child_left()


def test_map_trials_raises_a_workers_exception_as_the_serial_run_does(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)

    def fn(task):
        if task == 4:
            raise ValueError(f"task {task} is bad")
        return task

    with pytest.raises(ValueError) as serial:
        harness._map_trials(fn, list(range(7)), 1, 1)
    with pytest.raises(ValueError) as forked:
        harness._map_trials(fn, list(range(7)), 3, 1)
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value) == "task 4 is bad"
    assert_no_child_left()


def test_map_trials_forks_no_more_workers_than_memory_holds_trees(monkeypatch):
    """On 64 CPUs, ``jobs`` 4 forks two workers where physical memory
    holds exactly two ``MAX_NODES``-sized trees, runs in-process where it
    holds none, and forks four where ``os.sysconf`` cannot tell."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)

    def fn(task):
        return task * task, os.getpid()

    tasks = list(range(9))
    for trees, workers in ((2, 2), (0, 1), (None, 4)):
        def sysconf(name):
            if trees is None:
                raise ValueError(f"unrecognized configuration name {name!r}")
            return {"SC_PAGE_SIZE": harness.BYTES_PER_NODE,
                    "SC_PHYS_PAGES": trees * MAX_NODES}[name]

        monkeypatch.setattr(os, "sysconf", sysconf)
        outcomes = harness._map_trials(fn, tasks, 4, MAX_NODES)
        assert [square for square, _ in outcomes] == [fn(task)[0] for task in tasks]
        pids = {pid for _, pid in outcomes}
        if workers == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids and len(pids) == workers
        assert_no_child_left()


@pytest.mark.parametrize("dead", [0, 1, 2])
def test_a_worker_that_dies_mid_share_is_an_error_not_a_hang(monkeypatch, dead):
    """Worker ``dead`` of three leaves by ``os._exit(3)`` after one task
    of its share; the caller gets an error naming that status, and the
    workers after it, still busy, are stopped and reaped."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)

    def fn(task):  # worker k runs the tasks with task % 3 == k
        if task == dead + 3:
            os._exit(3)
        if dead < task < 3:  # the first task of each later worker
            time.sleep(30)
        return task

    start = perf_counter()
    with pytest.raises(RuntimeError, match=r"exited with status 3$"):
        harness._map_trials(fn, list(range(9)), 3, 1)
    assert perf_counter() - start < 10  # the busy workers were not waited for
    assert_no_child_left()


def test_jobs_without_fork_run_in_process(tmp_path, monkeypatch):
    argv = ["bench", "--bits", "8", "--trials", "3", "--schemes", "linear,hart"]
    assert cli.main(argv + ["--output-dir", str(tmp_path / "serial")]) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delattr(os, "fork")
    assert cli.main(argv + ["--jobs", "2", "--output-dir", str(tmp_path / "nofork")]) == 0

    def rows(name):
        text = (tmp_path / name / "bench.csv").read_text()
        return [line for line in text.splitlines() if "wall_time_seconds" not in line]

    assert len(rows("serial")) == 1 + 2 * 2  # header, two metrics per cell
    assert rows("nofork") == rows("serial")


def test_workers_flush_nothing_and_run_no_exit_handlers(tmp_path):
    """Workers leave by ``os._exit``: the thresholds line that this
    process printed but had not flushed when it forked (its standard
    output is a pipe, so block-buffered), and the line of its
    ``atexit`` handler, each appear once."""
    code = ("import atexit, os, sys; os.cpu_count = lambda: 2; "
            "atexit.register(print, 'exit handler'); from hartsim.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "compare-thresholds", "--bits", "8", "--trials", "4",
         "--emit-thresholds", "--jobs", "2", "--output-dir", str(tmp_path)],
        env={**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": str(Path(harness.__file__).parents[1])},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("H=")] == lines[:1]
    assert lines[0].startswith("H=6 ")
    assert [line for line in lines if line == "exit handler"] == lines[-1:]
