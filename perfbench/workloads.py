"""The benchmark's four workloads.

Each workload builds its inputs from the seed, runs in rounds, and
checks its outputs.  A round is a fixed list of operations (a
``run_cell`` per scheme, one ``rotations_histogram`` call, or one
command).  Each runs through the ``measure(operation, trials, fn)``
callback, which times it.  Every round repeats the same inputs, so
outputs and work counts are the same in every round and every run with
that seed, and run length changes only how many times each operation is
timed.

A trial's cost depends much on its key permutation: a rotation near the
root moves thousands of nodes, and such rotations are rare.  Over 20
seeds, the summed moved-set size of width-14 trials spreads by 14% (IQR
over median) for four trials and by 7% for eight.  Each operation
therefore runs several trials with distinct permutations.

* ``incremental`` -- eight width-14 trials per scheme (linear, random,
  gray, dfat-gray, hart 1/2) through ``run_cell`` at ``jobs=1``: the
  rotation hot path, where addressing, accounting and the harness glue
  do most of the work; linear and random skip re-addressing.
* ``full-pass`` -- two width-12 full-pass trials each for dfat-gray and
  hart 1/4, 1/2, 3/4: the whole-tree re-addressing sweep, which stays a
  from-scratch sweep, so incremental-path work should leave it alone.
* ``rotations`` -- ``rotations_histogram`` over eight width-16 trials:
  the tree layer alone, with no addressing or accounting.
* ``cli-grid`` -- ``hartsim bench --bits 8-12 --schemes all --trials 20
  --jobs 2`` as its own process: 25 small cells, each with its own
  process pool, so start-up, fan-out, merge and report writing weigh
  most.

Run as a script (``python3 perfbench/workloads.py NAME SEED``) it only
imports hartsim and builds the inputs; the benchmark times that as its
set-up.
"""

from __future__ import annotations

import csv
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from hartsim import harness
from hartsim.addressing import SchemeKind

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Round:
    attempted: int = 0  # trials, or commands on cli-grid
    failed: int = 0
    output: object = None  # compared between rounds and checked
    errors: list = field(default_factory=list)  # failures seen by the round


@dataclass
class Workload:
    build: Callable  # seed -> inputs
    run_round: Callable  # (inputs, trace_dir or None, measure) -> Round
    check: Callable  # (inputs, output) -> list of errors
    in_process: bool = True


def _spec(tag):
    if tag.startswith("hart"):
        return harness.SchemeSpec(SchemeKind.HART, Fraction(tag[5:-1]))
    return harness.SchemeSpec(SchemeKind(tag))


def _cells_round(inputs, trace_dir, measure):
    """One ``run_cell`` per scheme; output {tag: merged ledger}."""
    trials = inputs["trials"]
    result = Round(output={})
    for tag, spec in inputs["specs"].items():
        result.attempted += trials
        try:
            cell = measure(tag, trials, lambda: harness.run_cell(
                inputs["width"], spec, trials, inputs["seed"],
                reassign_mode=inputs["mode"], jobs=1,
            ))
        except Exception:  # the cell's trials count as failed, the round goes on
            result.failed += trials
            result.errors.append(f"{tag}: {traceback.format_exc()}")
            continue
        result.output[tag] = cell.ledger
    return result


def _permutations(inputs):
    """The key permutations ``run_cell`` draws for the inputs' trials."""
    width, seed = inputs["width"], inputs["seed"]
    n = harness.nodes_for_width(width)
    return [
        harness.gen_dataset(n, harness.dataset_seed(seed, width, trial))
        for trial in range(inputs["trials"])
    ]


# ----------------------------------------------------------------------
# incremental
# ----------------------------------------------------------------------
ALL_TAGS = ("linear", "random", "gray", "dfat-gray", "hart(1/2)")  # CLI "all" order
SNAPSHOT_WIDTH = 10


def build_incremental(seed):
    return {
        "width": 14,
        "trials": 8,
        "seed": seed,
        "mode": harness.INCREMENTAL,
        "specs": {tag: _spec(tag) for tag in ALL_TAGS},
    }


def _rank_table(kind, width):
    import oracles

    if kind is SchemeKind.GRAY:
        return oracles.level_order_table(width)
    if kind in (SchemeKind.DFAT_GRAY, SchemeKind.HART):
        return oracles.dfat_rank_table(width)
    return None


def check_incremental(inputs, ledgers):
    import oracles
    from hartsim.accounting import AccountingConfig
    from hartsim.addressing import SchemeConfig

    seed = inputs["seed"]
    permutations = _permutations(inputs)
    errors = oracles.check_same_rotations(ledgers, permutations)
    means = {tag: l.total_flips / l.total_rotations for tag, l in ledgers.items()}
    errors += oracles.check_flip_ordering(means)
    # The first timed trial of each scheme again, now with its final state
    # in hand; then one smaller trial with every stored word diffed.
    for tag, spec in inputs["specs"].items():
        for width in (inputs["width"], SNAPSHOT_WIDTH):
            (keys,) = _permutations(dict(inputs, width=width, trials=1))
            scheme = SchemeConfig(
                spec.kind, width, spec.threshold_ratio,
                seed=harness.scheme_seed(seed, width, spec.tag, spec.threshold_ratio, 0),
            )
            runner = harness.TrialRunner(scheme, AccountingConfig(), num_nodes=len(keys))
            if width == SNAPSHOT_WIDTH:
                errors += [f"{tag} width {width}: {e}"
                           for e in oracles.snapshot_trial(runner, keys)]
            else:
                runner.run(keys)
            errors += [f"{tag} width {width}: {e}" for e in oracles.check_addresses(
                runner, _rank_table(spec.kind, width))]
    return errors


# ----------------------------------------------------------------------
# full-pass
# ----------------------------------------------------------------------
FULL_PASS_TAGS = ("dfat-gray", "hart(1/4)", "hart(1/2)", "hart(3/4)")


def build_full_pass(seed):
    return {
        "width": 12,
        "trials": 2,
        "seed": seed,
        "mode": harness.FULL_PASS,
        "specs": {tag: _spec(tag) for tag in FULL_PASS_TAGS},
    }


def check_full_pass(inputs, ledgers):
    import oracles

    width, seed, trials = inputs["width"], inputs["seed"], inputs["trials"]
    incremental = {
        tag: harness.run_cell(width, spec, trials, seed, jobs=1).ledger
        for tag, spec in inputs["specs"].items()
    }
    ratios = {tag: spec.threshold_ratio for tag, spec in inputs["specs"].items()}
    return oracles.check_full_pass(
        ledgers, incremental, ratios, _permutations(inputs), width
    )


# ----------------------------------------------------------------------
# rotations
# ----------------------------------------------------------------------
def build_rotations(seed):
    return {"width": 16, "trials": 8, "seed": seed}


def run_rotations(inputs, trace_dir, measure):
    trials = inputs["trials"]
    result = Round(attempted=trials)
    try:
        result.output = measure("histogram", trials, lambda: harness.rotations_histogram(
            inputs["width"], trials, inputs["seed"], jobs=1
        ))
    except Exception:  # the call's trials all count as failed
        result.failed = trials
        result.errors.append(traceback.format_exc())
    return result


def check_rotations(inputs, hist):
    import oracles

    return oracles.check_histogram(hist, _permutations(inputs))


# ----------------------------------------------------------------------
# cli-grid
# ----------------------------------------------------------------------
CLI_WIDTHS = (8, 9, 10, 11, 12)
CLI_TRIALS = 20
CLI_JOBS = 2


def build_cli_grid(seed):
    import hartsim.cli  # noqa: F401  (the import a command-line user pays for)

    out_dir = ROOT / "perfbench" / "out" / f"cli-{seed}"
    argv = [
        "bench", "--bits", f"{CLI_WIDTHS[0]}-{CLI_WIDTHS[-1]}", "--schemes", "all",
        "--trials", str(CLI_TRIALS), "--seed", str(seed), "--jobs", str(CLI_JOBS),
        "--output-dir", str(out_dir),
    ]
    return {"seed": seed, "argv": argv, "out_dir": out_dir}


def run_cli_grid(inputs, trace_dir, measure):
    """One ``hartsim bench`` process; output its CSV rows, wall times blanked."""
    if trace_dir is None:
        command = [sys.executable, "-m", "hartsim.cli"]
    else:
        command = [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(trace_dir)]
    csv_path = inputs["out_dir"] / "bench.csv"
    csv_path.unlink(missing_ok=True)
    trials = len(CLI_WIDTHS) * len(ALL_TAGS) * CLI_TRIALS
    proc = measure("command", trials, lambda: subprocess.run(
        command + inputs["argv"], cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    ))
    result = Round(attempted=1)
    if proc.returncode != 0 or not csv_path.is_file():
        result.failed = 1
        result.errors.append(f"exit status {proc.returncode}: {proc.stderr.strip()}")
        return result
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        if row["metric"] == "wall_time_seconds":
            row["value"] = ""
    result.output = rows
    return result


def check_cli_grid(inputs, rows):
    import oracles

    config = harness.ExperimentConfig(
        widths=list(CLI_WIDTHS),
        schemes=[_spec(tag) for tag in ALL_TAGS],
        trials=CLI_TRIALS,
        base_seed=inputs["seed"],
    )
    cells = harness.run_experiment(config, jobs=1)
    return oracles.check_cli_rows(rows, cells, CLI_TRIALS, inputs["seed"])


WORKLOADS = {
    "incremental": Workload(build_incremental, _cells_round, check_incremental),
    "full-pass": Workload(build_full_pass, _cells_round, check_full_pass),
    "rotations": Workload(build_rotations, run_rotations, check_rotations),
    "cli-grid": Workload(build_cli_grid, run_cli_grid, check_cli_grid, in_process=False),
}


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
