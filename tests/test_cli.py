import csv
import json
from pathlib import Path

import pytest

from hartsim.cli import main, parse_bits, parse_ratio, parse_schemes
from hartsim.report import TIMING_METRICS


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def stable_rows(rows):
    """Rows with timing-dependent values masked out."""
    return [
        {**row, "value": "" if row["metric"] in TIMING_METRICS else row["value"]}
        for row in rows
    ]


GOLDEN = Path(__file__).resolve().parent / "golden"


def blank_timings(text):
    """CSV text with the values of timing-dependent rows emptied."""
    lines = []
    for line in text.split("\n"):
        fields = line.split(",")
        if len(fields) > 4 and fields[3] in TIMING_METRICS:
            fields[4] = ""
        lines.append(",".join(fields))
    return "\n".join(lines)


def test_parse_bits_forms():
    assert parse_bits("8") == [8]
    assert parse_bits("8,15") == [8, 15]
    assert parse_bits("8-11") == [8, 9, 10, 11]
    assert parse_bits("8-9,12") == [8, 9, 12]
    with pytest.raises(ValueError):
        parse_bits("9-8")
    with pytest.raises(ValueError):
        parse_bits("")


def test_parse_ratio_accepts_decimals_and_fractions():
    assert parse_ratio("0.5") == parse_ratio("1/2")
    with pytest.raises(ValueError):
        parse_ratio("0")
    with pytest.raises(ValueError):
        parse_ratio("1.5")


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


def test_compare_thresholds_ratio_override(tmp_path):
    code = main([
        "compare-thresholds", "--bits", "8", "--trials", "1",
        "--ratios", "0.1,0.9", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    rows = read_csv(tmp_path / "thresholds.csv")
    assert {row["threshold_ratio"] for row in rows} == {"0.1", "0.9"}


def test_compare_thresholds_needs_size(tmp_path, capsys):
    code = main(["compare-thresholds", "--output-dir", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


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
])
def test_bench_matches_committed_golden(tmp_path, name, flags):
    """A fixed-seed grid is byte-identical to the committed output,
    wall-time values excepted."""
    code = main([
        "bench", "--bits", "8-10", "--schemes", "all", "--trials", "5",
        "--seed", "7", "--output-dir", str(tmp_path), *flags,
    ])
    assert code == 0
    with open(tmp_path / "bench.csv", newline="") as handle:
        got = blank_timings(handle.read())
    with open(GOLDEN / f"bench_bits8-10_seed7_{name}.csv", newline="") as handle:
        assert got == handle.read()


@pytest.mark.parametrize("counting", ["per-case", "decomposed"])
def test_rotations_matches_committed_golden(tmp_path, counting):
    """Each width's series of a fixed-seed run, concatenated in width
    order, is byte-identical to the committed output."""
    code = main([
        "rotations", "--bits", "8-12", "--trials", "20", "--seed", "7",
        "--rotation-counting", counting, "--output-dir", str(tmp_path),
    ])
    assert code == 0
    got = "".join(
        (tmp_path / f"rotations_bits{width}.csv").read_text()
        for width in range(8, 13)
    )
    assert got == (GOLDEN / f"rotations_bits8-12_seed7_{counting}.csv").read_text()


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


@pytest.mark.parametrize("command", ["compare-thresholds", "assign-dump"])
def test_single_width_commands_reject_a_range(tmp_path, capsys, command):
    argv = [command, "--bits", "8-10"]
    if command == "compare-thresholds":
        argv += ["--trials", "1", "--output-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{command} takes a single width" in err
