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
    Threshold,
    check_ratio,
    dfat_index,
    SOURCE_LINEAR,
    SOURCE_RANDOM,
    SOURCE_SPARE,
)
from .avl import ROOT_LEVEL, AvlTree
from .harness import (
    DEFAULT_RATIOS,
    DEFAULT_TRIALS,
    FULL_PASS,
    INCREMENTAL,
    PER_CASE,
    DECOMPOSED,
    ExperimentConfig,
    SchemeSpec,
    balanced_insertion_order,
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


def parse_bits(text: str) -> list:
    """Parse widths: single values, comma lists, inclusive ranges a-b."""
    widths = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            lo_text, hi_text = chunk.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty width range {chunk!r}")
            nodes_for_width(hi)  # a range past the widest tree fails unlisted
            widths.extend(range(lo, hi + 1))
        else:
            widths.append(int(chunk))
    if not widths:
        raise ValueError("no widths given")
    return widths


def single_width(args) -> int:
    """The one width of ``--bits`` for commands that take no range."""
    widths = parse_bits(args.bits)
    if len(widths) != 1:
        raise ValueError(f"{args.command} takes a single width, got --bits {args.bits}")
    return widths[0]


def tree_size(args) -> int:
    """The node count given by ``--nodes`` or by the one width of ``--bits``."""
    if args.nodes is not None:
        return args.nodes
    if args.bits is None:
        raise ValueError("give --nodes or --bits")
    return nodes_for_width(single_width(args))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_ratio(text: str) -> Fraction:
    return check_ratio(SchemeKind.HART, text)


def parse_schemes(text: str, ratio: Fraction) -> list:
    """Expand a scheme list; 'all' means the five benchmark schemes."""
    if text.strip() == "all":
        tags = [kind.value for kind in SchemeKind]
    else:
        tags = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    return [SchemeSpec(kind, ratio if kind is SchemeKind.HART else None)
            for kind in map(SchemeKind, tags)]


def accounting_from_flag(value: str) -> AccountingConfig:
    """The write categories an ``--accounting`` value counts."""
    return AccountingConfig(value != "relabel", value != "pointer")


def _write_file(args, name, write, *table) -> str:
    """Write one table to ``<--output-dir>/<name>.<--out>`` with a
    ``report`` writer; return the path."""
    os.makedirs(args.output_dir, exist_ok=True)
    path = os.path.join(args.output_dir, f"{name}.{args.out}")
    with open(path, "w", newline="") as handle:
        write(handle, *table)
    return path


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
    cells = run_experiment(config, jobs=args.jobs)
    rows = [row for cell in cells for row in rows_from_cell(cell)]
    write = write_rows_csv if args.out == "csv" else write_rows_json
    path = _write_file(args, "bench", write, rows)
    for cell in cells:
        mean = cell.mean_flips_per_rotation
        mean_text = "n/a" if mean is None else f"{mean:.4f}"
        ratio_text = (
            f" ratio={cell.threshold_ratio}" if cell.threshold_ratio is not None else ""
        )
        print(
            f"width={cell.width} scheme={cell.scheme_tag}{ratio_text} "
            f"mean_flips_per_rotation={mean_text} "
            f"wall_time_s={cell.wall_seconds_per_trial:.4f} "
            f"overflow_fallbacks={cell.ledger.overflow_fallbacks}"
        )
    print(f"wrote {path}")
    return 0


def cmd_compare_thresholds(args) -> int:
    num_nodes = check_tree_size(tree_size(args))
    ratios = (
        tuple(parse_ratio(text) for text in args.ratios.split(","))
        if args.ratios
        else DEFAULT_RATIOS
    )
    thresholds = [Threshold.for_tree(num_nodes, ratio) for ratio in ratios]
    if args.emit_thresholds:
        levels = ", ".join(f"T({r})={t.level}" for r, t in zip(ratios, thresholds))
        print(f"H={thresholds[0].height}  {levels}")
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
    rows = []
    for cell, threshold in zip(cells, thresholds):
        rows.extend(rows_from_cell(cell))
        mean = cell.mean_flips_per_rotation
        print(
            f"ratio={cell.threshold_ratio} H={threshold.height} T={threshold.level} "
            f"mean_flips={'n/a' if mean is None else f'{mean:.4f}'} "
            f"wall_time_s={cell.wall_seconds_per_trial:.4f}"
        )
    write = write_rows_csv if args.out == "csv" else write_rows_json
    path = _write_file(args, "thresholds", write, rows)
    print(f"wrote {path}")
    return 0


def cmd_rotations(args) -> int:
    widths = parse_bits(args.bits)
    hists = rotations_histograms(
        widths,
        args.trials,
        args.seed,
        jobs=args.jobs,
        rotation_counting=args.rotation_counting,
    )
    header = ("level", "avg_rotations", "trials", "seed")
    write = write_series_csv if args.out == "csv" else write_series_json
    for width, hist in zip(widths, hists):
        series = [
            (level, avg, args.trials, args.seed) for level, avg in hist.items()
        ]
        path = _write_file(args, f"rotations_bits{width}", write, header, series)
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
    num_nodes = tree_size(args)
    if not 1 <= num_nodes <= ASSIGN_DUMP_LIMIT:
        raise ValueError(
            f"assign-dump handles 1..{ASSIGN_DUMP_LIMIT} nodes, got {num_nodes}"
        )
    kind = SchemeKind(args.scheme)
    ratio = parse_ratio(args.ratio) if kind is SchemeKind.HART else None
    width = num_nodes.bit_length() + 2 if args.width is None else args.width
    scheme = SchemeConfig(kind, width, ratio, seed=args.seed)
    assigner = AddressAssigner(scheme, num_nodes)
    tree = AvlTree()
    for key in balanced_insertion_order(num_nodes):
        tree.insert(key, on_attach=assigner.assign_on_insert)

    # The balanced tree is floor(log2 n) deep: below the width whenever
    # its n nodes fit the 2**width - 1 addresses (otherwise CapacityError
    # came first), so every node has a DFAT rank.
    positional_name = "gray" if kind is SchemeKind.GRAY else "dfat-gray"
    header = ("key", "level", "region", "dfat_rank", "address")
    rows = []
    for node, path in sorted(tree.nodes_with_paths(), key=lambda np: np[0].key):
        rec = assigner.records[node]
        region = _REGION_NAMES.get(rec.source, positional_name)
        rows.append((node.key, len(path) + ROOT_LEVEL, region, dfat_index(path, width),
                     format(rec.addr, f"0{width}b")))
    if args.out == "json":
        write_series_json(sys.stdout, header, rows)
    elif args.out == "csv":
        write_series_csv(sys.stdout, header, rows)
    else:
        print(f"scheme={kind.value}"
              + (f" ratio={ratio}" if ratio is not None else "")
              + f" width={width} nodes={num_nodes}")
        print(f"{'key':>6} {'level':>5} {'region':<11} {'dfat_rank':>9} address")
        for key, level, region, rank, address in rows:
            print(f"{key:>6} {level:>5} {region:<11} {rank:>9} {address}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_addressing(sub) -> None:
    """Flags of the commands that address and account, not of ``rotations``."""
    sub.add_argument("--mode", choices=(INCREMENTAL, FULL_PASS), default=INCREMENTAL)
    sub.add_argument(
        "--accounting", choices=("pointer", "relabel", "both"), default="pointer"
    )


def _add_common(sub) -> None:
    sub.add_argument("--trials", type=positive_int, default=DEFAULT_TRIALS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--rotation-counting", choices=(PER_CASE, DECOMPOSED), default=PER_CASE
    )
    sub.add_argument("--out", choices=("csv", "json"), default="csv")
    sub.add_argument("--output-dir", default=".")
    sub.add_argument("--jobs", type=positive_int, default=1)


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
    cmp_t.add_argument("--nodes", type=int)
    cmp_t.add_argument("--bits")
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
    dump.add_argument("--nodes", type=int)
    dump.add_argument("--bits")
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
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
