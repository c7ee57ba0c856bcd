"""Span tracing of hartsim from outside its source.

:class:`Tracer` replaces public functions of each hartsim module with
wrappers that record a span (name, start, end, parent) around every
call, and counts at the same boundaries.  Spans are kept in memory;
when a root span closes, the spans under it are folded into per-name
self times (a span's duration minus its direct children's), and the
intervals of trial and fan-out spans are kept for the fan-out split.

Functions are replaced under the name their caller looks up, e.g.
``hartsim.harness.record_rotation`` rather than the definition in
``hartsim.accounting``.  Pool workers are forked with the wrappers in
place; each worker writes its spans to ``trace_dir`` after every task.

Run as a script, this module is a traced ``hartsim`` command line:
``python3 perfbench/tracing.py TRACE_DIR bench --bits ...``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

TRIAL = "harness.trial"
FAN = "harness.fan"


def _count_insert(counts, args, events):
    if not events:
        return
    counts["avl.rotations"] += len(events)
    counts["avl.moved_nodes"] += sum(len(event.moved) for event in events)


def _count_reassign(counts, args, relabels):
    # args[1] is a rotation's moved list, or the tree for a full pass
    counts["addressing.visited_nodes"] += len(args[1])
    counts["addressing.relabels"] += len(relabels)


def _count_spare(counts, args, value):
    counts["addressing.spare_allocations"] += 1


def _count_trial(counts, args, result):
    counts["harness.trials"] += 1
    counts["addressing.indexed_nodes"] += result[0].indexed_nodes


def _count_histogram_trial(counts, args, result):
    counts["harness.trials"] += 1


def _targets():
    """(owner, attribute, span name or None, counter, worker entry)."""
    from hartsim import accounting, addressing, avl, cli, harness

    return [
        (avl.AvlTree, "insert", "avl.insert", _count_insert, False),
        (avl.AvlTree, "nodes_with_paths", "avl.nodes_with_paths", None, False),
        (addressing.AddressAssigner, "assign_on_insert", "addressing.assign", None, False),
        (addressing.AddressAssigner, "rebind_moved", "addressing.rebind", _count_reassign, False),
        (addressing.AddressAssigner, "full_pass", "addressing.full_pass", _count_reassign, False),
        (addressing.AddressSpace, "allocate_lowest_free", None, _count_spare, False),
        (harness, "record_rotation", "accounting.record", None, False),
        (accounting.FlipLedger, "merge", "accounting.merge", None, False),
        (harness.TrialRunner, "_on_attach", "harness.hook", None, False),
        (harness.TrialRunner, "_on_rotation", "harness.hook", None, False),
        (harness, "run_trial", TRIAL, _count_trial, False),
        (harness, "_trial_task", None, None, True),
        (harness, "_histogram_task", TRIAL, _count_histogram_trial, True),
        (harness, "run_cell", FAN, None, False),
        (harness, "rotations_histogram", FAN, None, False),
        (cli, "write_rows_csv", "report.write", None, False),
        (cli, "write_rows_json", "report.write", None, False),
        (cli, "write_series_csv", "report.write", None, False),
        (cli, "write_series_json", "report.write", None, False),
        (cli, "main", "cli.main", None, False),
    ]


class Tracer:
    """One per process; workers forked from it start empty."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.owner_pid = os.getpid()
        self.spans = []  # [name, start, end, parent index] under the open root
        self._patches = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.spans.clear()  # in place: the wrappers hold this list
        self.current = -1  # index of the innermost open span
        self.self_s = Counter()
        self.counts = Counter()
        self.intervals = []  # (name, start, end) of trial and fan spans
        self._dumps = 0

    def _fold(self):
        """Add the closed root's spans to the self times, then drop them."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            self.self_s[name] += end - start - covered[i]
            if name in (TRIAL, FAN):
                self.intervals.append((name, start, end))
        spans.clear()

    def _wrap(self, original, name, counter, worker_entry):
        tracer = self
        spans = self.spans

        def finish(args, result):
            if counter is not None:
                counter(tracer.counts, args, result)
            if worker_entry and os.getpid() != tracer.owner_pid:
                tracer.dump()

        if name is None:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                finish(args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                parent = tracer.current
                span = [name, perf_counter(), 0.0, parent]
                tracer.current = len(spans)
                spans.append(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    tracer.current = parent
                    if parent < 0:
                        tracer._fold()
                if counter is not None or worker_entry:
                    finish(args, result)
                return result

        return functools.update_wrapper(wrapper, original)

    def install(self):
        for owner, attr, name, counter, worker_entry in _targets():
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter, worker_entry))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def state(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "intervals": self.intervals,
        }

    def dump(self):
        """Write this process's spans to ``trace_dir`` and start afresh."""
        self._dumps += 1
        path = self.trace_dir / f"{os.getpid()}-{self._dumps}.json"
        path.write_text(json.dumps(self.state()))
        self.self_s = Counter()
        self.counts = Counter()
        self.intervals = []


def collect(states) -> dict:
    """Sum the states of several processes."""
    total = {"self_s": Counter(), "counts": Counter(), "intervals": []}
    for state in states:
        total["self_s"].update(state["self_s"])
        total["counts"].update(state["counts"])
        total["intervals"].extend(tuple(item) for item in state["intervals"])
    return total


def read_dir(trace_dir) -> list:
    return [json.loads(path.read_text()) for path in sorted(Path(trace_dir).glob("*.json"))]


def fanout_seconds(intervals) -> float:
    """Time inside fan-out spans not covered by any trial span.

    Trial spans may come from pool workers; the monotonic clock behind
    ``perf_counter`` is shared by all processes of the machine.
    """
    trials = sorted((start, end) for name, start, end in intervals if name == TRIAL)
    total = 0.0
    for name, start, end in intervals:
        if name != FAN:
            continue
        covered = 0.0
        reach = start
        for t_start, t_end in trials:
            if t_start < start or t_end > end:
                continue
            if t_end > reach:
                covered += t_end - max(t_start, reach)
                reach = t_end
        total += end - start - covered
    return total


#: Per-layer metric name -> unit; times and counts are per trial.
LAYER_UNITS = {
    "avl.insert_s": "s/trial",
    "avl.nodes_with_paths_s": "s/trial",
    "avl.rotations": "count/trial",
    "avl.moved_nodes": "count/trial",
    "addressing.assign_s": "s/trial",
    "addressing.rebind_s": "s/trial",
    "addressing.full_pass_s": "s/trial",
    "addressing.visited_nodes": "count/trial",
    "addressing.relabels": "count/trial",
    "addressing.spare_allocations": "count/trial",
    "addressing.relabel_yield": "ratio",
    "addressing.indexed_nodes": "count/trial",
    "accounting.record_s": "s/trial",
    "accounting.merge_s": "s/trial",
    "harness.trial_self_s": "s/trial",
    "harness.fanout_s": "s/trial",
    "report.write_s": "s/trial",
    "cli.self_s": "s/trial",
}

_SELF_TIMES = {
    "avl.insert_s": ("avl.insert",),
    "avl.nodes_with_paths_s": ("avl.nodes_with_paths",),
    "addressing.assign_s": ("addressing.assign",),
    "addressing.rebind_s": ("addressing.rebind",),
    "addressing.full_pass_s": ("addressing.full_pass",),
    "accounting.record_s": ("accounting.record",),
    "accounting.merge_s": ("accounting.merge",),
    "harness.trial_self_s": (TRIAL, "harness.hook"),
    "report.write_s": ("report.write",),
    "cli.self_s": ("cli.main",),
}


def layer_metrics(total) -> dict:
    """Per-trial metrics from a :func:`collect` result."""
    self_s = total["self_s"]
    counts = total["counts"]
    trials = counts["harness.trials"]
    if trials == 0:
        raise ValueError("no traced trial")
    values = {
        metric: sum(self_s[name] for name in names) / trials
        for metric, names in _SELF_TIMES.items()
    }
    values["harness.fanout_s"] = fanout_seconds(total["intervals"]) / trials
    for metric in ("avl.rotations", "avl.moved_nodes", "addressing.visited_nodes",
                   "addressing.relabels", "addressing.spare_allocations",
                   "addressing.indexed_nodes"):
        values[metric] = counts[metric] / trials
    visited = counts["addressing.visited_nodes"]
    values["addressing.relabel_yield"] = (
        counts["addressing.relabels"] / visited if visited else 0.0
    )
    return {name: values[name] for name in LAYER_UNITS}


def main(argv) -> int:
    """Traced ``hartsim`` command line; spans go to ``argv[0]``."""
    from hartsim import cli

    tracer = Tracer(argv[0])
    tracer.install()
    try:
        status = cli.main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
