"""Hand-made mutants of ``src/hartsim``: each must fail the test suite.

Each entry of :data:`MUTANTS` is (file under ``src/hartsim``, old text,
new text, what it breaks).  The old text occurs exactly once in
``src/``, which ``tests/test_mutants.py`` checks, so the list cannot rot
silently.  pytest does not collect this file.

Run it as a script from anywhere::

    python3 tests/mutants.py

For each mutant it copies ``src/`` and ``tests/``, with the ``README.md``,
``pyproject.toml`` and ``perfbench/`` that the tests read, to a fresh
temporary directory, applies the mutant there alone, and runs the tests
outside ``test_acceptance.py`` with ``-x``.  A mutant that survives that
run is run against the full suite before it counts as survived.  Neither
run includes ``test_mutants.py``: in a mutated copy its old text is gone,
so it would fail for every mutant and hide a survivor.  A mutant whose
old text is not in its file changes nothing and is reported survived.  It
prints one line per mutant, killed with the first failing test or
survived, and exits 1 if any survived.  It first runs the unmutated
copy's fast tests, and runs no mutant (exit 2) if they fail.  The
working tree is never edited.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hartsim"

#: (file, old text, new text, what it breaks).
MUTANTS = [
    # The threshold level hart's linear region ends at.
    ("addressing.py", "    return num_nodes.bit_length()\n",
     "    return num_nodes.bit_length() + 1\n",
     "height estimate one level too high: every hart threshold moves"),
    ("addressing.py", "* height + Fraction(1, 2)))",
     "* height))",
     "threshold rounds down instead of half away from zero"),
    # Brute-force DFAT traversal oracle.
    ("addressing.py", "    x = heap_id ^ (((4 << depth) - 1) // 3)\n",
     "    x = heap_id ^ (((2 << depth) - 1) // 3)\n",
     "DFAT rank flips the wrong depths (brute-force DFAT oracle)"),
    ("addressing.py", "    flip = ((4 << depth) - 1) // 3\n",
     "    flip = ((2 << depth) - 1) // 3\n",
     "whole-level DFAT ranks flip the wrong depths (brute-force DFAT oracle)"),
    # Incremental == full-pass oracle.
    ("addressing.py", "changers.sort(key=lambda c: (c[1] << (depth - c[4]), c[4]))",
     "changers.sort(key=lambda c: (c[4], c[1]))",
     "full pass claims in level order, not preorder (incremental == full pass)"),
    ("addressing.py", "elif rec.source == SOURCE_SPARE and rec.bound_pos == heap_id:",
     "elif rec.source == SOURCE_SPARE:",
     "full pass keeps a spare binding after its node moved (incremental == full pass)"),
    # The spare queue and its counters.
    ("addressing.py", "        if value < self._cursor:\n",
     "        if value < self._cursor - 1:\n",
     "a value freed just below the spare cursor is lost to the spare heap"),
    ("addressing.py", "        if target < 0:\n            self.overflow_fallbacks += 1\n",
     "        if target < self.space.null_word:\n            self.overflow_fallbacks += 1\n",
     "every spare conflict counted as a depth overflow"),
    # Snapshot-diff flip oracle.
    ("harness.py", "pointer_flips += (old_word ^ records[new].addr).bit_count()",
     "pointer_flips += (old_word ^ records[new].addr).bit_count() or 1",
     "a pointer write charged on an unchanged word (snapshot-diff flip oracle)"),
    ("accounting.py", "    if flips:\n        ledger.total_flips += flips\n",
     "    if flips > 1:\n        ledger.total_flips += flips\n",
     "a rotation of one flip goes uncredited (snapshot-diff flip oracle)"),
    ("harness.py", "counts[events[-1].pivot_level] += 1",
     "counts[events[0].pivot_level] += 1",
     "per-case histogram books a double at its first half's level"),
    # The forked fan-out and its ordering.
    ("harness.py", 'if workers < 2 or not hasattr(os, "fork"):',
     'if workers < 3 or not hasattr(os, "fork"):',
     "two workers run in-process: the fork threshold moved"),
    ("harness.py", "workers = min(workers, max(1, memory // (nodes * BYTES_PER_NODE)))",
     "workers = workers",
     "the fan-out forks more trees than physical memory holds: the memory term dropped"),
    ("harness.py", "return [shares[i % workers][i // workers] for i in range(len(tasks))]",
     "return [outcome for share in shares for outcome in share]",
     "outcomes merged share by share, not in task order (fan-out ordering)"),
    ("harness.py", "[fn(task) for task in tasks[k::workers]]",
     "[fn(task) for task in tasks[k::workers][::-1]]",
     "a worker returns its share's outcomes reversed (fan-out ordering)"),
    # The tree.
    ("avl.py", "a = sub_root.balance + 1 - (b if b < 0 else 0)",
     "a = sub_root.balance + 1 - (b if b > 0 else 0)",
     "a right rotation updates the sub-root's balance from the wrong case"),
    # The command line, and the declared tree size.
    ("cli.py", "width = num_nodes.bit_length() + 2 if args.width is None",
     "width = num_nodes.bit_length() + 3 if args.width is None",
     "assign-dump's default pointer width one bit too wide"),
    ("cli.py", "mid, depth = (lo + hi) // 2,",
     "mid, depth = (lo + hi + 1) // 2,",
     "assign-dump places each key range's upper midpoint"),
    ("cli.py", "add_mutually_exclusive_group(required=True)",
     "add_mutually_exclusive_group()",
     "a missing tree size is no longer a usage error"),
    ("cli.py", "    for cell in cells:\n        mean = cell.mean_flips_per_rotation\n",
     "    for cell in cells[:-1]:\n        mean = cell.mean_flips_per_rotation\n",
     "the report path prints no line for the last cell"),
    ("harness.py", "self.assigner = AddressAssigner(scheme, num_nodes)",
     "self.assigner = AddressAssigner(scheme, nodes_for_width(scheme.pointer_width))",
     "a trial's assigner sizes hart's threshold from the width, not the tree"),
]

#: Where the full run looks; the fast run also leaves out ``test_acceptance.py``.
FULL = ["tests", "--ignore=tests/test_mutants.py"]
FAST = [*FULL, "--ignore=tests/test_acceptance.py"]
TIMEOUT_S = 1800


def occurrences(old: str) -> int:
    """How often ``old`` occurs in the package source, all files together."""
    return sum(path.read_text().count(old) for path in SRC.glob("*.py"))


def _copy_tree(dest: Path) -> None:
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out", ".hypothesis"))
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(cwd: Path, args: list) -> tuple:
    """(passed, first failing test id) of one pytest run in ``cwd``; its
    whole process group is killed if it outlives :data:`TIMEOUT_S`."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, f"timeout after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return True, None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    return False, failed.group(1) if failed else f"pytest exit {proc.returncode}"


def run(mutant) -> tuple:
    """(killed, killing test, seconds) for one mutant, in its own copy;
    ``None`` runs the unmutated copy's fast tests."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="hartsim-mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        if mutant is None:
            passed, killer = _pytest(tmp, FAST)
            return not passed, killer, time.perf_counter() - t0
        name, old, new, _ = mutant
        path = tmp / "src" / "hartsim" / name
        path.write_text(path.read_text().replace(old, new))
        passed, killer = _pytest(tmp, FAST)
        if passed:
            passed, killer = _pytest(tmp, FULL)
    return not passed, killer, time.perf_counter() - t0


def main() -> int:
    failed, killer, _ = run(None)  # a kill means nothing if the copy fails unmutated
    if failed:
        print(f"the unmutated copy fails {killer}; no mutant was run")
        return 2
    survived = 0
    for mutant in MUTANTS:
        killed, killer, seconds = run(mutant)
        survived += not killed
        verdict = f"killed by {killer}" if killed else "SURVIVED"
        print(f"{mutant[0]:<14} {mutant[3]}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
