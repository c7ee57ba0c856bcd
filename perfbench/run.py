"""Run one hartsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hartsim is imported from
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics:

* ``setup_s`` -- median time for a fresh interpreter to import hartsim
  and build the workload's inputs, over several fresh interpreters;
* ``trials_per_s`` -- trials per host second over one round, from the
  median time of each of the round's operations over the rounds (on
  ``cli-grid``, 500 trials over one command's median wall time);
* ``peak_rss_mib`` -- peak resident memory of the workload's process
  and its pool workers, the largest of them.

With ``--trace 1`` rounds alternate between untraced and traced, and the
run prints per-layer metrics from the traced rounds (see tracing.py)
and the tracing overhead.  Either way, every round's outputs are
checked (see oracles.py).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("incremental", "full-pass", "rotations", "cli-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Timer:
    """Times the operations of one round."""

    def __init__(self):
        self.times = {}  # operation -> (trials, seconds)

    def measure(self, op, trials, fn):
        start = perf_counter()
        result = fn()
        self.times[op] = (trials, perf_counter() - start)
        return result


def setup_seconds(name, seed) -> float:
    """Median wall time of fresh interpreters that import hartsim and
    build the workload's inputs, then exit."""
    command = [sys.executable, str(ROOT / "perfbench" / "workloads.py"), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(command, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def trials_per_second(rounds) -> float:
    """A round's trials over the sum of its operations' median times."""
    samples = {}
    for times in rounds:
        for op, (trials, seconds) in times.items():
            samples.setdefault(op, (trials, []))[1].append(seconds)
    trials = sum(count for count, _ in samples.values())
    return trials / sum(statistics.median(seconds) for _, seconds in samples.values())


def peak_rss_mib(in_process) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hartsim" / "__init__.py").is_file():
        print(f"error: no hartsim source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    import hartsim
    import tracing
    import workloads

    if Path(hartsim.__file__).resolve().parent != SRC / "hartsim":
        print(f"error: imported hartsim from {hartsim.__file__}", file=sys.stderr)
        return 2
    name = args.workload
    workload = workloads.WORKLOADS[name]
    OUT.mkdir(parents=True, exist_ok=True)

    setup_s = setup_seconds(name, args.seed)
    inputs = workload.build(args.seed)
    tracer = None
    if args.trace:
        trace_dir = OUT / f"trace-{name}-{os.getpid()}"
        trace_dir.mkdir()
        tracer = tracing.Tracer(trace_dir)

    rounds = {False: [], True: []}  # traced? -> each round's operation times
    attempted = failed = 0
    outputs = []
    deadline = perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds[True]) < len(rounds[False])
        if traced and workload.in_process:
            tracer.install()
        timer = Timer()
        try:
            result = workload.run_round(
                inputs, tracer.trace_dir if traced else None, timer.measure
            )
        finally:
            if traced and workload.in_process:
                tracer.uninstall()
        attempted += result.attempted
        failed += result.failed
        for error in result.errors:
            print(f"failed operation: {error}", file=sys.stderr)
        if not result.failed:
            rounds[traced].append(timer.times)
            outputs.append(result.output)
        if perf_counter() >= deadline and (tracer is None or rounds[True]):
            break
    rss = peak_rss_mib(workload.in_process)

    if not outputs:
        errors = ["no round completed without a failed operation"]
    elif any(output != outputs[0] for output in outputs):
        errors = ["rounds on the same inputs gave different outputs"]
    else:
        errors = workload.check(inputs, outputs[0])
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "trials_per_s": (trials_per_second(rounds[False]), "trials/s"),
            "peak_rss_mib": (rss, "MiB"),
        }
    else:
        spans = tracing.collect(tracing.read_dir(tracer.trace_dir) + [tracer.state()])
        shutil.rmtree(tracer.trace_dir)
        metrics = {
            metric: (value, tracing.LAYER_UNITS[metric])
            for metric, value in tracing.layer_metrics(spans).items()
        }
        plain = trials_per_second(rounds[False])
        traced_rate = trials_per_second(rounds[True])
        metrics["trace.overhead_pct"] = (100 * (plain - traced_rate) / plain, "%")
        summary = {"workload": name, "seed": args.seed,
                   "untraced_trials_per_s": plain, "traced_trials_per_s": traced_rate,
                   "metrics": {metric: value for metric, (value, _) in metrics.items()},
                   "spans": spans}
        (OUT / f"trace-{name}.json").write_text(json.dumps(summary, indent=1))
    if "out_dir" in inputs:
        shutil.rmtree(inputs["out_dir"], ignore_errors=True)

    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
