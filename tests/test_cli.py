import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import avl_defect, balanced_order, brute_force_dfat_ranks, path_of
from hartsim import harness
from hartsim.accounting import AccountingConfig
from hartsim.addressing import MAX_POINTER_WIDTH, SchemeConfig, SchemeKind
from hartsim.avl import AvlTree
from hartsim.cli import ASSIGN_DUMP_LIMIT, main, parse_bits, parse_ratio, parse_schemes

#: Metrics whose values are timing-dependent and therefore excluded
#: from byte-identity comparisons between runs.
TIMING_METRICS = ("wall_time_seconds",)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def stable_rows(rows):
    """Rows with timing-dependent values masked out."""
    return [
        {**row, "value": "" if row["metric"] in TIMING_METRICS else row["value"]}
        for row in rows
    ]


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def blank_timings(text):
    """CSV text with the values of timing-dependent rows emptied."""
    lines = []
    for line in text.split("\n"):
        fields = line.split(",")
        if len(fields) > 4 and fields[3] in TIMING_METRICS:
            fields[4] = ""
        lines.append(",".join(fields))
    return "\n".join(lines)


def blank_json_timings(text):
    """JSON row text with the values of timing-dependent rows emptied."""
    metrics = "|".join(map(re.escape, TIMING_METRICS))
    return re.sub(rf'("metric": "(?:{metrics})",\n\s*"value": )[^,\n]*', r'\1""', text)


def test_parse_bits_forms():
    assert parse_bits("8") == [8]
    assert parse_bits("8,15") == [8, 15]
    assert parse_bits("8-11") == [8, 9, 10, 11]
    assert parse_bits("8-9,12") == [8, 9, 12]
    with pytest.raises(ValueError):
        parse_bits("9-8")
    with pytest.raises(ValueError):
        parse_bits("")
    for text, width in (("8,8", 8), ("8-10,9", 9), ("9, 8-10", 9)):
        with pytest.raises(ValueError, match=f"^width {width} given twice$"):
            parse_bits(text)


def test_parse_ratio_accepts_decimals_and_fractions():
    assert parse_ratio("0.5") == parse_ratio("1/2")
    with pytest.raises(ValueError):
        parse_ratio("0")
    with pytest.raises(ValueError):
        parse_ratio("1.5")
    with pytest.raises(ValueError, match="ratio 1/0 has a zero denominator"):
        SchemeConfig(SchemeKind.HART, 8, "1/0")


@pytest.mark.parametrize("argv", [
    ["bench", "--bits", "8", "--trials", "1", "--ratio", "1/0"],
    ["compare-thresholds", "--bits", "8", "--trials", "1", "--ratios", "0.5,1/0"],
    ["assign-dump", "--nodes", "7", "--ratio", "1/0"],
])
def test_zero_denominator_ratio_is_a_clean_error(tmp_path, capsys, argv):
    if argv[0] != "assign-dump":
        argv = argv + ["--output-dir", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: ratio 1/0 has a zero denominator\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["bench", "--bits", "8", "--schemes", ""], "no schemes given"),
    (["bench", "--bits", "8", "--schemes", ","], "no schemes given"),
    (["compare-thresholds", "--bits", "8", "--ratios", ""], "no ratios given"),
    (["compare-thresholds", "--bits", "8", "--ratios", ","], "no ratios given"),
    (["bench", "--bits", "8", "--schemes", "linear,linear"], "scheme linear given twice"),
    (["bench", "--bits", "8,8", "--schemes", "linear"], "width 8 given twice"),
    (["bench", "--bits", "8-10,9"], "width 9 given twice"),
    (["rotations", "--bits", "8,8"], "width 8 given twice"),
    (["compare-thresholds", "--bits", "8", "--ratios", "0.5,1/2"], "ratio 1/2 given twice"),
])
def test_empty_scheme_or_ratio_list_is_a_clean_error(tmp_path, capsys, argv, message):
    """An empty list, or one that names a width, scheme or ratio twice
    (ratios compared as fractions, widths after ranges expand), is one
    error line before any output is made."""
    out = tmp_path / "out"
    assert main(argv + ["--trials", "1", "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


#: The last output file of each command in the cases below.
LAST_OUTPUT = {"bench": "bench.csv", "compare-thresholds": "thresholds.csv",
               "rotations": "rotations_bits9.csv"}


@pytest.mark.parametrize("argv", [
    ["bench", "--bits", "8", "--trials", "1"],
    ["compare-thresholds", "--bits", "8", "--trials", "1", "--emit-thresholds"],
    ["rotations", "--bits", "8-9", "--trials", "1"],
])
@pytest.mark.parametrize("output_dir", ["file", "file/sub", "blocked"])
def test_unusable_output_dir_fails_before_any_trial(tmp_path, capsys, monkeypatch, argv,
                                                    output_dir):
    """An ``--output-dir`` that names a file, or a path under one, or a
    directory where an output file should go, is one error line before
    any trial runs, not a traceback or an error after the grid."""
    (tmp_path / "file").write_text("kept")
    if output_dir == "blocked":
        (tmp_path / output_dir / LAST_OUTPUT[argv[0]]).mkdir(parents=True)

    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_map_trials", no_trials)
    assert main(argv + ["--output-dir", str(tmp_path / output_dir)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""  # --emit-thresholds prints after the check
    assert (tmp_path / "file").read_text() == "kept"
    if output_dir == "blocked":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "file"]
        assert (tmp_path / output_dir / LAST_OUTPUT[argv[0]]).is_dir()
        made = [p for p in (tmp_path / output_dir).iterdir() if p.is_file()]
        assert all(p.stat().st_size == 0 for p in made), made
    else:
        assert [p.name for p in tmp_path.iterdir()] == ["file"]


def counting_forks(monkeypatch) -> list:
    """Patch ``os.fork`` with a wrapper that calls the real one and
    records, in this process, the pid of every worker it starts."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_jobs_start_no_more_workers_than_tasks_or_cpus(tmp_path, monkeypatch):
    """``--jobs`` caps the workers; it is not the number of processes
    started.  With an unknown CPU count the trials run in this process."""
    argv = ["bench", "--bits", "8", "--trials", "3", "--schemes", "linear,gray"]
    assert main(argv + ["--output-dir", str(tmp_path / "serial")]) == 0
    forks = counting_forks(monkeypatch)
    for cpus, workers in ((64, 6), (4, 4), (None, 0)):  # 2 schemes x 3 trials = 6 tasks
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(argv + ["--jobs", str(10**6), "--output-dir", str(out)]) == 0
        assert len(forks) == workers
        forks.clear()
        assert stable_rows(read_csv(out / "bench.csv")) == stable_rows(
            read_csv(tmp_path / "serial" / "bench.csv"))


def test_parse_schemes_all_expands_to_five():
    specs = parse_schemes("all", parse_ratio("0.5"))
    assert [spec.tag for spec in specs] == [
        "linear", "random", "gray", "dfat-gray", "hart",
    ]


def test_bench_writes_expected_grid(tmp_path):
    code = main([
        "bench", "--bits", "8", "--schemes", "all", "--trials", "2",
        "--seed", "42", "--out", "csv", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "bench.csv")
    assert len(rows) == 5 * 3  # five schemes x three metrics
    schemes = {row["scheme"] for row in rows}
    assert schemes == {"linear", "random", "gray", "dfat-gray", "hart"}
    for row in rows:
        if row["scheme"] == "hart":
            assert row["threshold_ratio"] == "0.5"
        else:
            assert row["threshold_ratio"] == ""
        assert row["trials"] == "2"
        assert row["seed"] == "42"
    metrics = {row["metric"] for row in rows}
    assert metrics == {
        "mean_flips_per_rotation", "wall_time_seconds", "overflow_fallbacks",
    }


def test_bench_is_deterministic_modulo_wall_time(tmp_path):
    dirs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        code = main([
            "bench", "--bits", "8-9", "--schemes", "dfat-gray,hart",
            "--ratio", "0.5", "--trials", "3", "--seed", "7",
            "--jobs", "2", "--output-dir", str(outdir),
        ])
        assert code == 0
        dirs.append(outdir)
    first = stable_rows(read_csv(dirs[0] / "bench.csv"))
    second = stable_rows(read_csv(dirs[1] / "bench.csv"))
    assert first == second


def test_bench_grid_expansion(tmp_path):
    code = main([
        "bench", "--bits", "8-9", "--schemes", "dfat-gray,hart",
        "--ratio", "0.5", "--trials", "1", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "bench.csv")
    cells = {(row["width"], row["scheme"]) for row in rows}
    assert cells == {
        ("8", "dfat-gray"), ("8", "hart"), ("9", "dfat-gray"), ("9", "hart"),
    }


def test_bench_json_matches_csv_values(tmp_path):
    for fmt in ("csv", "json"):
        code = main([
            "bench", "--bits", "8", "--schemes", "linear", "--trials", "2",
            "--seed", "1", "--out", fmt, "--output-dir", str(tmp_path),
        ])
        assert code == 0
    csv_rows = read_csv(tmp_path / "bench.csv")
    with open(tmp_path / "bench.json") as handle:
        json_rows = json.load(handle)
    assert len(csv_rows) == len(json_rows)
    for c_row, j_row in zip(csv_rows, json_rows):
        assert c_row["metric"] == j_row["metric"]
        assert int(c_row["width"]) == j_row["width"]
        if c_row["metric"] not in TIMING_METRICS:  # timings differ between runs
            assert float(c_row["value"]) == pytest.approx(j_row["value"])


def test_bench_rejects_bad_scheme(tmp_path, capsys):
    code = main([
        "bench", "--bits", "8", "--schemes", "bogus",
        "--output-dir", str(tmp_path),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["bench", "--bits", "8-"], "--bits part '8-' is not a width or a range a-b"),
    (["bench", "--bits", "-3"], "--bits part '-3' is not a width or a range a-b"),
    (["rotations", "--bits", "8,7-x"], "--bits part '7-x' is not a width or a range a-b"),
    (["bench", "--bits", "8", "--schemes", "linear,foo"],
     "unknown scheme 'foo': use linear, random, gray, dfat-gray, hart, or all alone"),
    (["rotations", "--bits", "2"], "width 2 outside [3, 24]"),
    (["compare-thresholds", "--nodes", "0"], "0 nodes outside [1, 4194303]"),
    (["compare-thresholds", "--bits", "25"],
     "width 25 outside [3, 24]: a wider tree does not fit in memory"),
    (["assign-dump", "--bits", "13"], "assign-dump handles 1..1024 nodes, got --bits 13"),
    (["assign-dump", "--bits", "25"], "assign-dump handles 1..1024 nodes, got --bits 25"),
])
def test_bad_widths_schemes_and_sizes_name_the_input(tmp_path, capsys, argv, message):
    """A malformed ``--bits`` part or an unknown scheme is named in the
    error, with the schemes to choose from; a value below its range is
    not blamed on memory, nor is one past assign-dump's own cap.
    Nothing is written or printed."""
    out = tmp_path / "out"
    if argv[0] != "assign-dump":
        argv = argv + ["--trials", "1", "--output-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, names", [
    ("--mode", "'incremental', 'full-pass'"),
    ("--rotation-counting", "'per-case', 'decomposed'"),
])
def test_mode_flags_offer_the_harness_names(capsys, flag, names):
    """The choices are the harness's own lists, in their order."""
    assert names == ", ".join(map(repr, harness.REASSIGN_MODES if flag == "--mode"
                                        else harness.ROTATION_COUNTINGS))
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--bits", "8", flag, "bogus"])
    assert excinfo.value.code == 2
    assert f"{flag}: invalid choice: 'bogus' (choose from {names})" in capsys.readouterr().err


@pytest.mark.parametrize("ratio, message", [
    ("abc", "Invalid literal for Fraction: 'abc'"),
    ("0", "ratio 0 outside (0, 1]"),
])
@pytest.mark.parametrize("scheme", ["linear", "random", "gray", "dfat-gray"])
def test_assign_dump_checks_the_ratio_of_every_scheme(capsys, scheme, ratio, message):
    """``--ratio`` is parsed for every scheme, as ``bench`` parses it, and
    is taken only by hart."""
    assert main(["assign-dump", "--nodes", "7", "--scheme", scheme, "--ratio", ratio]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bench_requires_bits():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2


def test_compare_thresholds_outputs(tmp_path, capsys):
    code = main([
        "compare-thresholds", "--nodes", "63", "--trials", "2",
        "--emit-thresholds", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "H=6" in out
    assert "T(1/4)=2" in out and "T(1/2)=3" in out and "T(3/4)=5" in out
    rows = read_csv(tmp_path / "thresholds.csv")
    ratios = {row["threshold_ratio"] for row in rows}
    assert ratios == {"0.25", "0.5", "0.75"}
    assert all(row["scheme"] == "hart" for row in rows)


@pytest.mark.parametrize("argv, lines", [
    (["bench", "--bits", "8"], [
        "width=8 scheme=linear mean_flips_per_rotation=6.5098 wall_time_s=* overflow_fallbacks=0",
        "width=8 scheme=random mean_flips_per_rotation=9.4902 wall_time_s=* overflow_fallbacks=0",
        "width=8 scheme=gray mean_flips_per_rotation=2.6275 wall_time_s=* overflow_fallbacks=0",
        "width=8 scheme=dfat-gray mean_flips_per_rotation=2.9804 wall_time_s=* "
        "overflow_fallbacks=0",
        "width=8 scheme=hart ratio=1/2 mean_flips_per_rotation=3.7843 wall_time_s=* "
        "overflow_fallbacks=0",
        "wrote {dir}/bench.csv",
    ]),
    (["compare-thresholds", "--nodes", "63", "--emit-thresholds"], [
        "H=6  T(1/4)=2, T(1/2)=3, T(3/4)=5",
        "ratio=1/4 H=6 T=2 mean_flips=3.2157 wall_time_s=*",
        "ratio=1/2 H=6 T=3 mean_flips=3.7843 wall_time_s=*",
        "ratio=3/4 H=6 T=5 mean_flips=6.0392 wall_time_s=*",
        "wrote {dir}/thresholds.csv",
    ]),
], ids=["bench", "compare-thresholds"])
def test_grid_commands_print_one_line_per_cell(tmp_path, capsys, argv, lines):
    assert main(argv + ["--trials", "2", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert re.sub(r"wall_time_s=\d+\.\d{4}\b", "wall_time_s=*", out) == "".join(
        line.format(dir=tmp_path) + "\n" for line in lines)


def test_compare_thresholds_ratio_override(tmp_path):
    code = main([
        "compare-thresholds", "--bits", "8", "--trials", "1",
        "--ratios", "0.1,0.9", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "thresholds.csv")
    assert {row["threshold_ratio"] for row in rows} == {"0.1", "0.9"}


@pytest.mark.parametrize("command", ["compare-thresholds", "assign-dump"])
def test_missing_size_is_a_usage_error(tmp_path, capsys, command):
    argv = [command]
    if command == "compare-thresholds":
        argv += ["--trials", "1", "--output-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert f"{command}: error: one of the arguments --nodes --bits is required" in err
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compare-thresholds", "assign-dump"])
def test_nodes_and_bits_together_are_a_usage_error(tmp_path, capsys, command):
    argv = [command, "--nodes", "63", "--bits", "12"]
    if command == "compare-thresholds":
        argv += ["--trials", "1", "--output-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert "argument --bits: not allowed with argument --nodes" in err
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_rotations_series(tmp_path):
    code = main([
        "rotations", "--bits", "8,9", "--trials", "2", "--seed", "7",
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    for width in (8, 9):
        rows = read_csv(tmp_path / f"rotations_bits{width}.csv")
        assert rows, "empty series"
        levels = [int(row["level"]) for row in rows]
        assert levels == sorted(levels)
        assert all(row["trials"] == "2" and row["seed"] == "7" for row in rows)
        assert all(float(row["avg_rotations"]) >= 0 for row in rows)


def test_rotations_single_trial_is_integer_series(tmp_path):
    code = main([
        "rotations", "--bits", "8", "--trials", "1", "--seed", "7",
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "rotations_bits8.csv")
    assert all(float(row["avg_rotations"]).is_integer() for row in rows)


def test_assign_dump_seven_node_fixture(capsys):
    code = main([
        "assign-dump", "--nodes", "7", "--ratio", "0.25", "--out", "json",
    ])
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 7
    by_key = {rec["key"]: rec for rec in records}
    root = by_key[3]
    assert root["level"] == 1
    assert root["region"] == "linear"
    assert root["address"] == "00000"
    assert by_key[1]["region"] == "dfat-gray"
    assert by_key[1]["dfat_rank"] == 1
    assert by_key[1]["address"] == "00001"
    assert by_key[5]["dfat_rank"] == 16
    assert by_key[5]["address"] == "11000"  # gray(16) == 24
    addresses = {rec["address"] for rec in records}
    assert len(addresses) == 7


def test_balanced_order_builds_without_rotations():
    assert balanced_order(7) == [3, 1, 5, 0, 2, 4, 6]
    for n in range(1, ASSIGN_DUMP_LIMIT + 1):  # the balanced inputs of test_assigner
        tree = AvlTree()
        for key in balanced_order(n):
            assert tree.insert(key) == []
        assert avl_defect(tree) is None  # so in-order is sorted order
        assert sorted(node.key for node, _ in tree.nodes_with_paths()) == list(range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 100, 511, 1000, 1023, 1024])
def test_assign_dump_places_each_key_where_insertion_attaches_it(capsys, n):
    """assign-dump places its balanced tree without growing one: each key's
    level and DFAT rank are those of the position inserting the keys in
    ``balanced_order`` attaches it at, the rank from the brute-force traversal."""
    ranks = brute_force_dfat_ranks(n.bit_length() + 2)  # assign-dump's default width
    attached = {}

    def attach(node, depth, heap_id):
        attached[node.key] = (depth + 1, ranks[path_of(heap_id)])

    tree = AvlTree()
    for key in balanced_order(n):
        tree.insert(key, on_attach=attach)
    assert main(["assign-dump", "--nodes", str(n), "--out", "csv"]) == 0
    rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert [(int(row["key"]), (int(row["level"]), int(row["dfat_rank"]))) for row in rows] \
        == sorted(attached.items())


def test_assign_dump_ratio_one_all_linear(capsys):
    code = main([
        "assign-dump", "--nodes", "7", "--ratio", "1", "--out", "json",
    ])
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    assert all(rec["region"] == "linear" for rec in records)
    values = sorted(int(rec["address"], 2) for rec in records)
    assert values == list(range(7))


def test_assign_dump_rejects_empty_and_oversized(capsys):
    assert main(["assign-dump", "--nodes", "0"]) == 1
    assert main(["assign-dump", "--nodes", "2000"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_assign_dump_text_format(capsys):
    code = main(["assign-dump", "--nodes", "3", "--scheme", "dfat-gray"])
    assert code == 0
    out = capsys.readouterr().out
    assert "region" in out
    assert "dfat-gray" in out


@pytest.mark.parametrize("name, flags", [
    ("default", []),
    ("full-pass", ["--mode", "full-pass"]),
    ("accounting-both", ["--accounting", "both"]),
    ("json", ["--out", "json"]),
])
def test_bench_matches_committed_golden(tmp_path, name, flags):
    """A fixed-seed grid is byte-identical to the committed output,
    wall-time values excepted."""
    code = main([
        "bench", "--bits", "8-10", "--schemes", "all", "--trials", "5",
        "--seed", "7", "--output-dir", str(tmp_path), *flags,
    ])
    assert code == 0
    fmt, blank = ("json", blank_json_timings) if name == "json" else ("csv", blank_timings)
    with open(tmp_path / f"bench.{fmt}", newline="") as handle:
        got = blank(handle.read())
    with open(GOLDEN / f"bench_bits8-10_seed7_{name}.{fmt}", newline="") as handle:
        assert got == handle.read()


@pytest.mark.parametrize("fmt, blank", [
    ("csv", blank_timings), ("json", blank_json_timings),
])
def test_compare_thresholds_matches_committed_golden(tmp_path, fmt, blank):
    code = main([
        "compare-thresholds", "--bits", "10", "--trials", "5", "--seed", "7",
        "--out", fmt, "--output-dir", str(tmp_path),
    ])
    assert code == 0
    got = blank((tmp_path / f"thresholds.{fmt}").read_text())
    assert got == (GOLDEN / f"thresholds_bits10_seed7.{fmt}").read_text()


@pytest.mark.parametrize("counting, fmt", [
    ("per-case", "csv"), ("decomposed", "csv"), ("per-case", "json"),
], ids=["per-case", "decomposed", "per-case-json"])
def test_rotations_matches_committed_golden(tmp_path, counting, fmt):
    """Each width's series of a fixed-seed run, concatenated in width
    order, is byte-identical to the committed output."""
    code = main([
        "rotations", "--bits", "8-12", "--trials", "20", "--seed", "7",
        "--rotation-counting", counting, "--out", fmt, "--output-dir", str(tmp_path),
    ])
    assert code == 0
    got = "".join(
        (tmp_path / f"rotations_bits{width}.{fmt}").read_text()
        for width in range(8, 13)
    )
    assert got == (GOLDEN / f"rotations_bits8-12_seed7_{counting}.{fmt}").read_text()


@pytest.mark.parametrize("name, flags", [
    ("hart-0.25", ["--scheme", "hart", "--ratio", "0.25"]),
    ("random-seed3-width7", ["--scheme", "random", "--seed", "3", "--width", "7"]),
])
@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv"), ("json", "json")])
def test_assign_dump_matches_committed_golden(capsys, name, flags, fmt, ext):
    assert main(["assign-dump", "--nodes", "20", *flags, "--out", fmt]) == 0
    golden = GOLDEN / f"assign-dump_nodes20_{name}.{ext}"
    assert capsys.readouterr().out == golden.read_text()


def test_rotations_width_without_rotations(tmp_path, capsys):
    code = main([
        "rotations", "--bits", "3", "--trials", "2", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    assert "width=3 peak_level=n/a" in capsys.readouterr().out
    assert read_csv(tmp_path / "rotations_bits3.csv") == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected_at_parse_time(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "bench", "--bits", "8", "--trials", "1", "--jobs", jobs,
            "--output-dir", str(tmp_path),
        ])
    assert excinfo.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("command", ["bench", "compare-thresholds", "rotations"])
@pytest.mark.parametrize("trials", ["0", "-2"])
def test_trials_below_one_rejected_at_parse_time(tmp_path, capsys, command, trials):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--bits", "8", "--trials", trials, "--output-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "--trials: must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_assign_dump_rejects_width_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["assign-dump", "--nodes", "7", "--width", "0"])
    assert excinfo.value.code == 2
    assert "--width: must be at least 1" in capsys.readouterr().err


def test_assign_dump_rejects_a_width_past_one_machine_word(capsys):
    assert main(["assign-dump", "--nodes", "7", "--width", str(MAX_POINTER_WIDTH)]) == 0
    assert f"width={MAX_POINTER_WIDTH} nodes=7" in capsys.readouterr().out
    for width in (MAX_POINTER_WIDTH + 1, 14400):
        assert main(["assign-dump", "--nodes", "7", "--width", str(width)]) == 1
        assert capsys.readouterr().err == (
            f"error: pointer_width {width} outside [2, {MAX_POINTER_WIDTH}], "
            "two bits to one machine word\n")


def test_rotations_runs_every_width_through_one_pool(tmp_path, monkeypatch):
    """One fan-out serves all five widths: two workers at ``--jobs 2``,
    not two per width."""
    argv = ["rotations", "--bits", "8-12", "--trials", "2", "--seed", "3"]
    assert main(argv + ["--output-dir", str(tmp_path / "serial")]) == 0
    forks = counting_forks(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert main(argv + ["--jobs", "2", "--output-dir", str(tmp_path / "pool")]) == 0
    assert len(forks) == 2
    for width in range(8, 13):
        name = f"rotations_bits{width}.csv"
        assert (tmp_path / "pool" / name).read_text() == (
            tmp_path / "serial" / name).read_text()


def _subtree_size(node):
    size, stack = 0, [node]
    while stack:
        node = stack.pop()
        if node is not None:
            size += 1
            stack += (node.left, node.right)
    return size


def _counts_untraced(argv, width, seed):
    """What ``avl.moved_nodes`` and ``addressing.visited_nodes`` should
    count for a ``bench`` or ``rotations`` command line at one width,
    from the pivot's subtree walked in a hook while it is current: each
    rotation moves that subtree, a full pass visits the whole tree at
    every rotation, the incremental sweep a positional scheme's moved
    subtree.  Nothing reads ``event.moved``."""
    moved, visited = [], []
    trials = range(int(argv[argv.index("--trials") + 1]))
    if argv[0] == "rotations":
        for trial in trials:
            tree = AvlTree()
            for key in harness.gen_dataset(harness.nodes_for_width(width),
                                           harness.dataset_seed(seed, width, trial)):
                tree.insert(key, on_rotation=lambda event: moved.append(
                    _subtree_size(event.pivot)))
        return sum(moved), 0
    mode = argv[argv.index("--mode") + 1]
    for spec in parse_schemes("all", parse_ratio("0.5")):
        ratio = spec.threshold_ratio
        for trial in trials:
            scheme = SchemeConfig(spec.kind, width, ratio, seed=harness.scheme_seed(
                seed, width, spec.tag, ratio, trial))
            runner = harness.TrialRunner(scheme, AccountingConfig(), mode,
                                         num_nodes=harness.nodes_for_width(width))

            def hook(event, *_, tree=runner.tree,
                     sweeps=not runner.assigner.identity_bound):
                moved.append(_subtree_size(event.pivot))
                if mode == harness.FULL_PASS:
                    visited.append(len(tree))
                elif sweeps:
                    visited.append(moved[-1])

            runner.after_rotation_hook = hook
            runner.run(harness.gen_dataset(harness.nodes_for_width(width),
                                           harness.dataset_seed(seed, width, trial)))
    return sum(moved), sum(visited)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("argv, trials", [
    (["bench", "--bits", "8", "--trials", "1", "--mode", harness.INCREMENTAL], 5),
    (["bench", "--bits", "8", "--trials", "1", "--mode", harness.FULL_PASS], 5),
    (["rotations", "--bits", "8", "--trials", "2"], 2),
], ids=["bench-incremental", "bench-full-pass", "rotations"])
def test_traced_command_line_finds_every_name_it_wraps(tmp_path, argv, trials, jobs):
    """The perfbench tracer wraps hartsim functions by name; a run under
    it fails if one of those names is gone, every trial is counted once
    whether it ran in this process or in a forked worker that dumps per
    task, and the nodes it counts as moved and as visited are the pivot
    subtrees the rotations move and the ones each mode's sweep walks."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(tmp_path),
         *argv, "--jobs", str(jobs), "--output-dir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    total = tracing.collect(tracing.read_dir(tmp_path))
    assert total["counts"]["harness.trials"] == trials
    assert total["self_s"]["report.write"] > 0
    moved, visited = _counts_untraced(argv, 8, 0)
    assert moved > 0
    assert total["counts"]["avl.moved_nodes"] == moved
    if argv[0] == "bench":
        assert visited > 0
        assert total["counts"]["addressing.visited_nodes"] == visited


@pytest.mark.parametrize("command", ["compare-thresholds", "assign-dump"])
def test_single_width_commands_reject_a_range(tmp_path, capsys, command):
    argv = [command, "--bits", "8-10"]
    if command == "compare-thresholds":
        argv += ["--trials", "1", "--output-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{command} takes a single width" in err


@pytest.mark.parametrize("flag", [["--mode", "full-pass"], ["--accounting", "both"]])
def test_rotations_rejects_flags_it_does_not_read(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(["rotations", "--bits", "8", "--trials", "2",
              "--output-dir", str(tmp_path)] + flag)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "rotations_bits8.csv").exists()


def test_import_hartsim_loads_no_process_pool_modules(tmp_path):
    """Importing the library's modules stays cheap, and no run loads a
    process pool: ``bench --jobs 2`` forks its workers itself."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, hartsim.harness, hartsim.report; print([m for m in ('concurrent.futures', "
            "'multiprocessing') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    code = ("import os, sys; os.cpu_count = lambda: 2; from hartsim.cli import main; "
            "main(sys.argv[1:]); print([m for m in ('concurrent.futures', "
            "'multiprocessing') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code, "bench", "--bits", "8", "--trials", "2",
                           "--schemes", "linear", "--jobs", "2", "--output-dir", str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "bench.csv").exists()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
