"""A plain reader of valid raw half-hourly files, kept as a reference for the loader's tests.

Every row is read with the csv module and every cell on its own: stripped,
missing when empty, otherwise converted with ``float()``. Blank rows are
skipped and the days are sorted by date. Nothing is checked, so it must only
be given valid files.
"""

import csv
import datetime as dt

import numpy as np


def load(path):
    """``(dates, readings)``: a tuple of dates and a (days, 48) array, NaN where missing."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    days = []
    for row in rows:
        if not row:
            continue
        readings = []
        for cell in row[1:]:
            cell = cell.strip()
            readings.append(float(cell) if cell else float("nan"))
        days.append((dt.date.fromisoformat(row[0]), readings))
    days.sort(key=lambda day: day[0])
    values = np.array([readings for _, readings in days], dtype=float).reshape(-1, 48)
    return tuple(date for date, _ in days), values
