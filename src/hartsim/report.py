"""Tables hartsim writes as CSV or JSON.

A table is a header plus rows of values in header order.  This module
alone decides how a table is serialized; every writer takes an open
text stream, a file or standard output.
"""

from __future__ import annotations

import csv
import json

CSV_FIELDS = ("width", "scheme", "threshold_ratio", "metric", "value",
              "trials", "seed")


def rows_from_cell(cell) -> list:
    """Expand one grid cell into metric rows, tuples in CSV_FIELDS order."""
    ratio = cell.threshold_ratio
    ratio_text = "" if ratio is None else format(float(ratio), "g")
    metrics = []
    mean = cell.mean_flips_per_rotation
    if mean is not None:
        metrics.append(("mean_flips_per_rotation", mean))
    metrics.append(("wall_time_seconds", cell.wall_seconds_per_trial))
    metrics.append(("overflow_fallbacks", float(cell.ledger.overflow_fallbacks)))
    return [
        (cell.width, cell.scheme_tag, ratio_text, metric, value, cell.trials,
         cell.base_seed)
        for metric, value in metrics
    ]


def write_rows_csv(handle, rows) -> None:
    write_series_csv(handle, CSV_FIELDS, rows)


def write_rows_json(handle, rows) -> None:
    write_series_json(handle, CSV_FIELDS, rows)


def write_series_csv(handle, header, rows) -> None:
    """One header line, then one line per row; floats as their repr."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def write_series_json(handle, header, rows) -> None:
    """A list of {column: value} records, indented, with a final newline."""
    json.dump([dict(zip(header, row)) for row in rows], handle, indent=2)
    handle.write("\n")
