"""Command-line front end.

Subcommands:

* ``bench``               -- run the (width x scheme) benchmark grid.
* ``compare-thresholds``  -- hybrid scheme at several threshold ratios.
* ``rotations``           -- rotation-per-level series, one file per width.
* ``assign-dump``         -- address assignment of one small tree, per node.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .accounting import AccountingConfig
from .addressing import (
    AddressAssigner,
    CapacityError,
    SchemeConfig,
    SchemeKind,
    check_ratio,
    dfat_rank,
    threshold_from_ratio,
    tree_height_estimate,
    SOURCE_LINEAR,
    SOURCE_RANDOM,
    SOURCE_SPARE,
)
from .avl import Node
from .harness import (
    DEFAULT_RATIOS,
    DEFAULT_TRIALS,
    INCREMENTAL,
    PER_CASE,
    REASSIGN_MODES,
    ROTATION_COUNTINGS,
    ExperimentConfig,
    SchemeSpec,
    check_tree_size,
    compare_thresholds,
    nodes_for_width,
    rotations_histograms,
    run_experiment,
)
from .report import (
    rows_from_cell,
    write_rows_csv,
    write_rows_json,
    write_series_csv,
    write_series_json,
)

ASSIGN_DUMP_LIMIT = 1 << 10


def _distinct(items, what: str) -> list:
    """``items`` as a list: a ValueError if it is empty or names one twice."""
    items = list(items)
    if not items:
        raise ValueError(f"no {what}s given")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValueError(f"{what} {item} given twice")
    return items


def parse_bits(text: str, size=nodes_for_width) -> list:
    """Parse widths: single values, comma lists, inclusive ranges a-b; a width
    ``size`` refuses, or given twice (also by overlapping ranges), is an error."""
    widths = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        bounds = chunk.split("-", 1)
        try:
            lo, hi = int(bounds[0]), int(bounds[-1])
        except ValueError:
            raise ValueError(f"--bits part {chunk!r} is not a width or a range a-b") from None
        if hi < lo:
            raise ValueError(f"empty width range {chunk!r}")
        for width in (lo, hi):  # a refused width fails before a range is listed
            size(width)
        widths.extend(range(lo, hi + 1))
    return _distinct(widths, "width")


def tree_size(args, size=nodes_for_width) -> int:
    """The node count given by ``--nodes``, or ``size`` of the one width of ``--bits``;
    the parser requires one of the two (``_add_size``)."""
    if args.nodes is not None:
        return args.nodes
    widths = parse_bits(args.bits, size)
    if len(widths) != 1:
        raise ValueError(f"{args.command} takes a single width, got --bits {args.bits}")
    return size(widths[0])


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_ratio(text: str) -> Fraction:
    return check_ratio(SchemeKind.HART, text)


def parse_schemes(text: str, ratio: Fraction) -> list:
    """Expand a scheme list; 'all' means the five benchmark schemes."""
    names = [kind.value for kind in SchemeKind]
    tags = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    if tags == ["all"]:
        tags = names
    for tag in tags:
        if tag not in names:
            raise ValueError(f"unknown scheme {tag!r}: use {', '.join(names)}, or all alone")
    return [SchemeSpec(kind, ratio if kind is SchemeKind.HART else None)
            for kind in map(SchemeKind, _distinct(tags, "scheme"))]


def accounting_from_flag(value: str) -> AccountingConfig:
    """The write categories an ``--accounting`` value counts."""
    return AccountingConfig(value != "relabel", value != "pointer")


def _output_paths(args, *names) -> list:
    """``<--output-dir>/<name>.<--out>`` for each name, each opened for
    append (truncating nothing) so that one not writable fails early."""
    os.makedirs(args.output_dir, exist_ok=True)
    paths = [os.path.join(args.output_dir, f"{name}.{args.out}") for name in names]
    for path in paths:
        open(path, "a").close()
    return paths


def _write_file(path, write, *table) -> None:
    """Write one table to ``path`` with a ``report`` writer."""
    with open(path, "w", newline="") as handle:
        write(handle, *table)


def _report(args, path, cells, line) -> None:
    """Write the rows of ``cells`` to ``path`` as ``--out`` says, then print
    ``line(cell, mean)`` per cell (``mean`` as text, ``n/a`` if no rotation) and the path."""
    write = write_rows_csv if args.out == "csv" else write_rows_json
    _write_file(path, write, [row for cell in cells for row in rows_from_cell(cell)])
    for cell in cells:
        mean = cell.mean_flips_per_rotation
        print(line(cell, "n/a" if mean is None else f"{mean:.4f}"))
    print(f"wrote {path}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_bench(args) -> int:
    widths = parse_bits(args.bits)
    ratio = parse_ratio(args.ratio)
    schemes = parse_schemes(args.schemes, ratio)
    config = ExperimentConfig(
        widths=widths,
        schemes=schemes,
        trials=args.trials,
        base_seed=args.seed,
        accounting=accounting_from_flag(args.accounting),
        reassign_mode=args.mode,
        rotation_counting=args.rotation_counting,
    )
    (path,) = _output_paths(args, "bench")

    def line(cell, mean):
        ratio_text = "" if cell.threshold_ratio is None else f" ratio={cell.threshold_ratio}"
        return (f"width={cell.width} scheme={cell.scheme_tag}{ratio_text} "
                f"mean_flips_per_rotation={mean} wall_time_s={cell.wall_seconds_per_trial:.4f} "
                f"overflow_fallbacks={cell.ledger.overflow_fallbacks}")

    _report(args, path, run_experiment(config, jobs=args.jobs), line)
    return 0


def cmd_compare_thresholds(args) -> int:
    num_nodes = check_tree_size(tree_size(args))
    ratios = DEFAULT_RATIOS
    if args.ratios is not None:
        ratios = _distinct(map(parse_ratio, filter(str.strip, args.ratios.split(","))), "ratio")
    height = tree_height_estimate(num_nodes)
    levels = {ratio: threshold_from_ratio(height, ratio) for ratio in ratios}
    (path,) = _output_paths(args, "thresholds")
    if args.emit_thresholds:
        print(f"H={height}  " + ", ".join(f"T({r})={t}" for r, t in levels.items()))
    cells = compare_thresholds(
        num_nodes,
        ratios=ratios,
        trials=args.trials,
        base_seed=args.seed,
        accounting=accounting_from_flag(args.accounting),
        reassign_mode=args.mode,
        jobs=args.jobs,
        rotation_counting=args.rotation_counting,
    )
    _report(args, path, cells, lambda cell, mean: (
        f"ratio={cell.threshold_ratio} H={height} T={levels[cell.threshold_ratio]} "
        f"mean_flips={mean} wall_time_s={cell.wall_seconds_per_trial:.4f}"))
    return 0


def cmd_rotations(args) -> int:
    widths = parse_bits(args.bits)
    paths = _output_paths(args, *(f"rotations_bits{width}" for width in widths))
    hists = rotations_histograms(
        widths,
        args.trials,
        args.seed,
        jobs=args.jobs,
        rotation_counting=args.rotation_counting,
    )
    header = ("level", "avg_rotations", "trials", "seed")
    write = write_series_csv if args.out == "csv" else write_series_json
    for width, path, hist in zip(widths, paths, hists):
        series = [
            (level, avg, args.trials, args.seed) for level, avg in hist.items()
        ]
        _write_file(path, write, header, series)
        peak = max(hist, key=hist.__getitem__, default=None)  # None: no rotation
        summary = ("peak_level=n/a peak_avg=n/a" if peak is None
                   else f"peak_level={peak} peak_avg={hist[peak]:.2f}")
        print(f"width={width} {summary} wrote {path}")
    return 0


_REGION_NAMES = {
    SOURCE_LINEAR: "linear",
    SOURCE_SPARE: "spare-queue",
    SOURCE_RANDOM: "random",
}


def cmd_assign_dump(args) -> int:
    def size(width):  # the cap, not the memory bound, refuses a wide --bits
        if width <= ASSIGN_DUMP_LIMIT.bit_length() + 1:  # 12 bits: 1,023 nodes
            return nodes_for_width(width)
        raise ValueError(f"assign-dump handles 1..{ASSIGN_DUMP_LIMIT} nodes, got --bits {width}")

    num_nodes = tree_size(args, size)
    if not 1 <= num_nodes <= ASSIGN_DUMP_LIMIT:
        raise ValueError(f"assign-dump handles 1..{ASSIGN_DUMP_LIMIT} nodes, got {num_nodes}")
    kind = SchemeKind(args.scheme)
    ratio = parse_ratio(args.ratio)  # checked for every scheme, as bench does
    width = num_nodes.bit_length() + 2 if args.width is None else args.width
    scheme = SchemeConfig(kind, width, ratio if kind is SchemeKind.HART else None, seed=args.seed)
    assigner = AddressAssigner(scheme, num_nodes)
    # The balanced tree of keys 0..n-1 is placed, not grown: breadth first,
    # each key range's midpoint sits at its heap id, its halves at 2*id and
    # 2*id + 1, which is where and in the order that inserting the midpoints
    # attaches them.  It is floor(log2 n) deep: below the width whenever its
    # n nodes fit the 2**width - 1 addresses (otherwise CapacityError came
    # first), so every node has a DFAT rank.
    positional_name = "gray" if kind is SchemeKind.GRAY else "dfat-gray"
    header = ("key", "level", "region", "dfat_rank", "address")
    rows = []
    ranges = [(0, num_nodes, 1)]
    for lo, hi, heap_id in ranges:  # the list grows behind the loop
        if lo >= hi:
            continue
        mid, depth = (lo + hi) // 2, heap_id.bit_length() - 1
        node = Node(mid)
        value = assigner.assign_on_insert(node, depth, heap_id)
        region = _REGION_NAMES.get(assigner.records[node].source, positional_name)
        rows.append((mid, depth + 1, region, dfat_rank(heap_id, depth, width),
                     format(value, f"0{width}b")))
        ranges += ((lo, mid, 2 * heap_id), (mid + 1, hi, 2 * heap_id + 1))
    rows.sort()
    if args.out == "json":
        write_series_json(sys.stdout, header, rows)
    elif args.out == "csv":
        write_series_csv(sys.stdout, header, rows)
    else:
        print(f"scheme={kind.value}"
              + (f" ratio={ratio}" if kind is SchemeKind.HART else "")
              + f" width={width} nodes={num_nodes}")
        print(f"{'key':>6} {'level':>5} {'region':<11} {'dfat_rank':>9} address")
        for key, level, region, rank, address in rows:
            print(f"{key:>6} {level:>5} {region:<11} {rank:>9} {address}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_size(sub) -> None:
    """The tree size of a one-tree command: ``--nodes`` or one ``--bits`` width."""
    size = sub.add_mutually_exclusive_group(required=True)
    size.add_argument("--nodes", type=int)
    size.add_argument("--bits")


def _add_addressing(sub) -> None:
    """Flags of the commands that address and account, not of ``rotations``."""
    sub.add_argument("--mode", choices=REASSIGN_MODES, default=INCREMENTAL)
    sub.add_argument(
        "--accounting", choices=("pointer", "relabel", "both"), default="pointer"
    )


def _add_common(sub) -> None:
    sub.add_argument("--trials", type=positive_int, default=DEFAULT_TRIALS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--rotation-counting", choices=ROTATION_COUNTINGS, default=PER_CASE)
    sub.add_argument("--out", choices=("csv", "json"), default="csv")
    sub.add_argument("--output-dir", default=".")
    sub.add_argument("--jobs", type=positive_int, default=1,
                     help="worker processes at most; never more than trials or CPUs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartsim",
        description="Benchmark address-allocation schemes for AVL trees "
        "in flip-counted (phase-change) memory.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    bench = subs.add_parser("bench", help="run the width x scheme grid")
    bench.add_argument("--bits", required=True)
    bench.add_argument("--schemes", default="all")
    bench.add_argument("--ratio", default="0.5", help="hybrid threshold ratio")
    _add_addressing(bench)
    _add_common(bench)
    bench.set_defaults(func=cmd_bench)

    cmp_t = subs.add_parser(
        "compare-thresholds", help="hybrid scheme at several threshold ratios"
    )
    _add_size(cmp_t)
    cmp_t.add_argument("--ratios", help="comma list, e.g. 0.25,0.5,0.75 or 1/4,1/2")
    cmp_t.add_argument(
        "--emit-thresholds", action="store_true",
        help="print the height estimate and threshold levels",
    )
    _add_addressing(cmp_t)
    _add_common(cmp_t)
    cmp_t.set_defaults(func=cmd_compare_thresholds)

    rot = subs.add_parser("rotations", help="rotations-per-level series")
    rot.add_argument("--bits", required=True)
    _add_common(rot)
    rot.set_defaults(func=cmd_rotations)

    dump = subs.add_parser(
        "assign-dump", help="per-node address assignment of one small tree"
    )
    _add_size(dump)
    dump.add_argument("--scheme", default="hart", choices=[k.value for k in SchemeKind])
    dump.add_argument("--ratio", default="0.5")
    dump.add_argument("--width", type=positive_int, help="override the pointer width")
    dump.add_argument("--seed", type=int, default=0)
    dump.add_argument("--out", choices=("csv", "json", "text"), default="text")
    dump.set_defaults(func=cmd_assign_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
