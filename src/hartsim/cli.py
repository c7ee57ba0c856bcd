"""Command-line front end.

Subcommands:

* ``bench``               -- run the (width x scheme) benchmark grid.
* ``compare-thresholds``  -- hybrid scheme at several threshold ratios.
* ``rotations``           -- rotation-per-level series, one file per width.
* ``assign-dump``         -- address assignment of one small tree, per node.
"""

from __future__ import annotations

import argparse
import csv
import json
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
    dfat_index,
    DepthOverflowError,
    SOURCE_LINEAR,
    SOURCE_POSITIONAL,
    SOURCE_RANDOM,
    SOURCE_SPARE,
)
from .avl import AvlTree
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
    compare_thresholds,
    nodes_for_width,
    rotations_histogram,
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


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_ratio(text: str) -> Fraction:
    ratio = Fraction(text)
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio {text} outside (0, 1]")
    return ratio


def parse_schemes(text: str, ratio: Fraction) -> list:
    """Expand a scheme list; 'all' means the five benchmark schemes."""
    if text.strip() == "all":
        tags = [kind.value for kind in SchemeKind]
    else:
        tags = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    specs = []
    for tag in tags:
        kind = SchemeKind(tag)
        if kind is SchemeKind.HART:
            specs.append(SchemeSpec(kind, ratio))
        else:
            specs.append(SchemeSpec(kind))
    return specs


def accounting_from_flag(value: str) -> AccountingConfig:
    if value == "pointer":
        return AccountingConfig(True, False)
    if value == "relabel":
        return AccountingConfig(False, True)
    return AccountingConfig(True, True)


def _outdir(args) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return args.output_dir


def _write_rows(rows, path_base, fmt):
    path = f"{path_base}.{fmt}"
    if fmt == "csv":
        write_rows_csv(rows, path)
    else:
        write_rows_json(rows, path)
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
    path = _write_rows(rows, os.path.join(_outdir(args), "bench"), args.out)
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
    if args.nodes is None and args.bits is None:
        raise ValueError("give --nodes or --bits")
    if args.nodes is not None:
        num_nodes = args.nodes
        if num_nodes < 1:
            raise ValueError("--nodes must be >= 1")
    else:
        num_nodes = nodes_for_width(single_width(args))
    ratios = (
        tuple(parse_ratio(text) for text in args.ratios.split(","))
        if args.ratios
        else DEFAULT_RATIOS
    )
    if args.emit_thresholds:
        height = Threshold.for_tree(num_nodes, ratios[0]).height
        levels = ", ".join(
            f"T({ratio})={Threshold.for_tree(num_nodes, ratio).level}"
            for ratio in ratios
        )
        print(f"H={height}  {levels}")
    results = compare_thresholds(
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
    for ratio, metrics in results.items():
        rows.extend(rows_from_cell(metrics["cell"]))
        mean = metrics["mean_flips_per_rotation"]
        print(
            f"ratio={ratio} H={metrics['height']} T={metrics['threshold']} "
            f"mean_flips={'n/a' if mean is None else f'{mean:.4f}'} "
            f"wall_time_s={metrics['wall_time_seconds']:.4f}"
        )
    path = _write_rows(rows, os.path.join(_outdir(args), "thresholds"), args.out)
    print(f"wrote {path}")
    return 0


def cmd_rotations(args) -> int:
    widths = parse_bits(args.bits)
    outdir = _outdir(args)
    for width in widths:
        hist = rotations_histogram(
            width,
            args.trials,
            args.seed,
            jobs=args.jobs,
            rotation_counting=args.rotation_counting,
        )
        series = [
            (level, avg, args.trials, args.seed) for level, avg in hist.items()
        ]
        header = ("level", "avg_rotations", "trials", "seed")
        path = os.path.join(outdir, f"rotations_bits{width}.{args.out}")
        if args.out == "csv":
            write_series_csv(path, header, series)
        else:
            write_series_json(path, header, series)
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
    if args.nodes is not None:
        num_nodes = args.nodes
    elif args.bits is not None:
        num_nodes = nodes_for_width(single_width(args))
    else:
        raise ValueError("give --nodes or --bits")
    if not 1 <= num_nodes <= ASSIGN_DUMP_LIMIT:
        raise ValueError(
            f"assign-dump handles 1..{ASSIGN_DUMP_LIMIT} nodes, got {num_nodes}"
        )
    kind = SchemeKind(args.scheme)
    ratio = parse_ratio(args.ratio) if kind is SchemeKind.HART else None
    width = args.width or (num_nodes.bit_length() + 2)
    scheme = SchemeConfig(kind, width, ratio, seed=args.seed)
    assigner = AddressAssigner(scheme, num_nodes)
    tree = AvlTree()
    for key in balanced_insertion_order(num_nodes):
        tree.insert(key, on_attach=assigner.assign_on_insert)

    positional_name = "gray" if kind is SchemeKind.GRAY else "dfat-gray"
    records = []
    for node, path in sorted(tree.nodes_with_paths(), key=lambda np: np[0].key):
        rec = assigner.record_of(node)
        region = _REGION_NAMES.get(rec.source, positional_name)
        try:
            rank = dfat_index(path, assigner.depth_capacity)
        except DepthOverflowError:
            rank = None
        records.append(
            {
                "key": node.key,
                "level": len(path) + 1,
                "region": region,
                "dfat_rank": rank,
                "address": format(rec.addr, f"0{width}b"),
            }
        )
    if args.out == "json":
        json.dump(records, sys.stdout, indent=2)
        print()
    elif args.out == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("key", "level", "region", "dfat_rank", "address"))
        for rec in records:
            writer.writerow(
                (rec["key"], rec["level"], rec["region"],
                 "" if rec["dfat_rank"] is None else rec["dfat_rank"],
                 rec["address"])
            )
    else:
        print(f"scheme={kind.value}"
              + (f" ratio={ratio}" if ratio is not None else "")
              + f" width={width} nodes={num_nodes}")
        print(f"{'key':>6} {'level':>5} {'region':<11} {'dfat_rank':>9} address")
        for rec in records:
            rank = "-" if rec["dfat_rank"] is None else rec["dfat_rank"]
            print(
                f"{rec['key']:>6} {rec['level']:>5} {rec['region']:<11} "
                f"{rank:>9} {rec['address']}"
            )
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_common(sub) -> None:
    sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--mode", choices=(INCREMENTAL, FULL_PASS), default=INCREMENTAL)
    sub.add_argument(
        "--accounting", choices=("pointer", "relabel", "both"), default="pointer"
    )
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
    dump.add_argument("--width", type=int, help="override the pointer width")
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
