"""Half-hourly concentration data: ingestion, curve building, rolling forecasts.

The pipeline turns raw days of 48 half-hourly readings into smooth curves:
seasonal filtering with a fixed exclusion window, a missing-data rule with
linear gap filling, a square-root variance-stabilizing transform, centering
by day-of-week mean profiles, and penalized-free least-squares smoothing
onto a small cubic B-spline basis evaluated on a uniform output grid. The
days travel through those steps as one ``DayTable``: their sorted dates
and one (days, 48) array of readings. The rolling driver then scores
one-step forecasts from a sliding training window with periodic refitting,
as one column per method over the evaluated days.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError, NumericalError
from .evaluate import RunLog, fit_methods, parse_method
from .grid import uniform_grid
from .moments import FunctionalSample, SpanCoordinates, span_coordinates

__all__ = [
    "SLOTS_PER_DAY",
    "BATCH_SIZE",
    "PARSE_ROWS",
    "Day",
    "DayTable",
    "PipelineConfig",
    "RollingConfig",
    "PreprocessedCurves",
    "RollingResult",
    "load_halfhourly_csv",
    "filter_and_interpolate",
    "preprocess_curves",
    "smooth_days",
    "rolling_forecast",
]

SLOTS_PER_DAY = 48

# refit windows of a rolling backtest fitted and scored as one stack; larger
# stacks are hardly faster and hold larger temporaries: about 1 MB to fit 64
# windows of 100 ten-coordinate curves, and about 2 MB to decode one
# method's forecasts of 64 blocks of 20 days on a 100-point grid
BATCH_SIZE = 64

# raw-file lines tokenized, and rows converted, at a time: a chunk's cell
# strings, about 0.4 MB for 128 rows, are freed before the next chunk is read.
# A chunk of plain lines (no quote, carriage return or NUL, none longer than
# the csv module's field limit) is split on commas, as the csv module would
# split it; the first chunk that is not plain hands itself and the rest of
# the file to ``csv.reader``, since a quoted cell may span lines.
PARSE_ROWS = 128

CSV_HEADER = ["date"] + [f"h{i:02d}" for i in range(1, SLOTS_PER_DAY + 1)]


class Day(NamedTuple):
    """One day of a ``DayTable``, as iterating the table yields it."""

    date: dt.date
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class DayTable:
    """Days of half-hourly readings: sorted unique dates and one (days, 48) array.

    NaN marks a missing slot; every other reading is finite and
    nonnegative. The array is read-only and checked once, vectorised,
    when the table is built. Iterating yields ``Day`` rows.
    """

    dates: tuple
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != SLOTS_PER_DAY:
            raise ValueError(f"a day carries exactly {SLOTS_PER_DAY} half-hour slots")
        if len(values) != len(dates):
            raise ValueError("a table holds one row of readings per date")
        if any(later <= earlier for earlier, later in zip(dates, dates[1:])):
            raise ValueError("table dates must be sorted and unique")
        _check_readings(values, lambda row: dates[row].isoformat())
        _freeze(self, dates, values)

    @classmethod
    def _checked(cls, dates: tuple, values: np.ndarray) -> DayTable:
        """A table of sorted unique dates and readings that passed ``_check_readings``."""
        table = object.__new__(cls)
        _freeze(table, dates, values)
        return table

    def __len__(self) -> int:
        return len(self.dates)

    def __iter__(self):
        return map(Day, self.dates, self.values)


def _freeze(table: DayTable, dates: tuple, values: np.ndarray) -> None:
    values.flags.writeable = False
    object.__setattr__(table, "dates", dates)
    object.__setattr__(table, "values", values)


def _check_readings(values: np.ndarray, where) -> None:
    """Raise ValueError for the first day with an infinite or a negative reading.

    The message starts with ``where(row)``; a day's infinite reading is
    named before its negative one.
    """
    infinite = np.isinf(values).any(axis=1)
    bad = np.flatnonzero(infinite | (values < 0).any(axis=1))
    if bad.size:
        row = int(bad[0])
        if infinite[row]:
            raise ValueError(f"{where(row)}: readings must be finite or missing")
        raise ValueError(f"{where(row)}: concentration readings cannot be negative")


@dataclass(frozen=True)
class PipelineConfig:
    """Filtering and smoothing parameters of the curve-building pipeline.

    Window endpoints are (month, day) pairs, inclusive, and may wrap over
    the year boundary.
    """

    season_start: tuple = (10, 1)
    season_end: tuple = (3, 31)
    exclusion_start: tuple = (12, 28)
    exclusion_end: tuple = (1, 7)
    max_missing: int = 5
    n_basis: int = 10
    output_grid_size: int = 100

    def __post_init__(self):
        if not 0 <= self.max_missing < SLOTS_PER_DAY:
            raise ValueError(f"max_missing must lie in 0..{SLOTS_PER_DAY - 1}")
        if self.n_basis < 4:
            raise ValueError("need at least 4 cubic B-spline basis functions")
        if self.output_grid_size < self.n_basis:
            raise ValueError("output grid must be at least as fine as the basis")


@dataclass(frozen=True)
class RollingConfig:
    """Sliding-window forecast protocol parameters; every method shares the windows."""

    window: int = 100
    refit_interval: int = 20
    methods: tuple = ("tikhonov:cv",)
    gap_policy: str = "exclude-cross-gap"

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.window < 10:
            raise ValueError("rolling window must hold at least 10 curves")
        if self.refit_interval < 1:
            raise ValueError("refit interval must be at least 1")
        if self.gap_policy not in ("exclude-cross-gap", "contiguous"):
            raise ValueError("gap_policy must be 'exclude-cross-gap' or 'contiguous'")
        if not self.methods:
            raise ValueError("rolling needs at least one method")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"duplicate method ids in {list(self.methods)}")
        for label in self.methods:
            parse_method(label)


@dataclass(frozen=True, eq=False)
class PreprocessedCurves:
    """Smooth curves with the weekday profiles removed during centering."""

    sample: FunctionalSample
    weekday_means: np.ndarray  # (7, 48); row 0 = Monday; NaN if weekday absent
    dates: tuple


@dataclass(frozen=True, eq=False)
class RollingResult:
    """Every method's forecasts over the kept evaluation days, plus the run's log.

    The columns are shared by every method: ``days`` holds the (D,)
    indices of the kept evaluation days and ``refit`` marks those that
    open a refit block. ``ise`` and ``tuning`` are (P, D), one row per
    method in config order, NaN on the days of a failed fit, whose error
    text the (P, D) object array ``errors`` holds, None on a scored day.
    """

    days: np.ndarray
    refit: np.ndarray
    ise: np.ndarray
    tuning: np.ndarray
    errors: np.ndarray
    skipped_gaps: int  # evaluation days skipped by the gap policy, per method
    span_rank: int  # numerical rank of the sample's centred sqrt-weighted curves
    # the run's stages, and the windows counted; CV edges under "tikhonov:cv"
    log: RunLog


_READING_CELLS = operator.itemgetter(slice(1, None))
_EMPTY_AS_NAN = {"": "nan"}.get


def load_halfhourly_csv(path) -> DayTable:
    """Read `date,h01..h48` rows into a ``DayTable``.

    A cell is stripped; an empty one is a missing reading, any other is
    read with ``float()`` (so ``nan`` is missing too). Dates must be
    ISO-8601 and unique. Rows are tokenized by ``_rows`` and converted
    ``PARSE_ROWS`` at a time straight into arrays and checked as they
    are, so neither the whole file's cell strings nor a per-day object is
    ever held. Every problem, the csv module's own errors included,
    raises ValueError naming the first offending line of the file.
    """
    dates, seen, chunks = [], set(), []
    rows, lines, problem = [], [], None
    with open(path, newline="") as handle:
        reader = _rows(handle)
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ValueError(f"line 1: expected header {','.join(CSV_HEADER)!r}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    date = _row_date(row)
                except ValueError as exc:
                    problem = f"line {line_no}: {exc}"
                    break
                if date in seen:
                    problem = f"line {line_no}: duplicate date {date.isoformat()}"
                    break
                seen.add(date)
                dates.append(date)
                rows.append(row)
                lines.append(line_no)
                if len(rows) == PARSE_ROWS:
                    chunks.append(_readings(rows, lines))
                    rows.clear()
                    lines.clear()
        except csv.Error as exc:
            # e.g. a cell longer than the csv module's field size limit
            problem = str(exc)
    # the rows before a problem are checked first: a fault among them comes earlier
    if rows:
        chunks.append(_readings(rows, lines))
        rows.clear()
    if problem is not None:
        raise ValueError(problem)
    values = np.concatenate(chunks) if chunks else np.empty((0, SLOTS_PER_DAY))
    del chunks
    if any(later < earlier for earlier, later in zip(dates, dates[1:])):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates, values = [dates[i] for i in order], values[order]
    return DayTable._checked(tuple(dates), values)


def _rows(handle):
    """Yield the rows ``csv.reader`` yields for an open raw file, tokenized as ``PARSE_ROWS`` says.

    The csv module's errors are raised as ``csv.Error`` whose text starts
    with ``line N:``, N counting the lines of the whole file.
    """
    limit = csv.field_size_limit()
    read = 0
    for chunk in iter(lambda: list(itertools.islice(handle, PARSE_ROWS)), []):
        text = "".join(chunk)
        if '"' in text or "\r" in text or "\0" in text or max(map(len, chunk)) > limit:
            reader = csv.reader(itertools.chain(chunk, handle))
            try:
                yield from reader
            except csv.Error as exc:
                raise csv.Error(f"line {read + reader.line_num}: {exc}") from None
            return
        # rows go out one at a time, without the chunk's text: holding a chunk's
        # rows at once added about 0.6 MB of peak RSS
        del text
        read += len(chunk)
        for line in chunk:
            yield line.rstrip("\n").split(",") if line != "\n" else []


def _row_date(row: list) -> dt.date:
    if len(row) != SLOTS_PER_DAY + 1:
        raise ValueError(f"expected {SLOTS_PER_DAY + 1} cells, got {len(row)}")
    try:
        return dt.date.fromisoformat(row[0])
    except ValueError:
        raise ValueError(f"bad date {row[0]!r}") from None


def _readings(rows: list, lines: list) -> np.ndarray:
    """The checked (rows, 48) readings of parsed rows whose file lines are ``lines``."""
    cells = list(itertools.chain.from_iterable(map(_READING_CELLS, rows)))
    try:
        # the common case: every cell is a number or empty
        values = np.fromiter(map(float, map(_EMPTY_AS_NAN, cells, cells)), float, len(cells))
        values = values.reshape(len(rows), SLOTS_PER_DAY)
    except ValueError:
        values = _readings_cell_by_cell(rows, lines)
    _check_readings(values, lambda row: f"line {lines[row]}")
    return values


def _readings_cell_by_cell(rows: list, lines: list) -> np.ndarray:
    values = np.full((len(rows), SLOTS_PER_DAY), np.nan)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if not cell:
                continue
            try:
                values[i, j] = float(cell)
            except ValueError:
                # a fault on an earlier line comes first
                _check_readings(values[:i], lambda row: f"line {lines[row]}")
                raise ValueError(f"line {lines[i]}: bad reading {cell!r}") from None
    return values


def _in_window(month_days: np.ndarray, start: tuple, end: tuple) -> np.ndarray:
    # 100 * month + day orders dates as (month, day) pairs do
    first, last = 100 * start[0] + start[1], 100 * end[0] + end[1]
    if first <= last:
        return (month_days >= first) & (month_days <= last)
    return (month_days >= first) | (month_days <= last)


def filter_and_interpolate(table: DayTable, config: PipelineConfig) -> DayTable:
    """Keep in-season days outside the exclusion window and fill their gaps.

    Days with more missing readings than ``config.max_missing`` are
    dropped. Remaining gaps are filled by linear interpolation over the
    slot index; gaps touching a day boundary take the nearest reading.
    The filled readings lie between present ones, so the result needs no
    new check.
    """
    month_days = np.fromiter((100 * d.month + d.day for d in table.dates), int, len(table))
    missing = np.isnan(table.values)
    keep = (
        _in_window(month_days, config.season_start, config.season_end)
        & ~_in_window(month_days, config.exclusion_start, config.exclusion_end)
        & (missing.sum(axis=1) <= config.max_missing)
    )
    values, missing = table.values[keep], missing[keep]
    _fill_gaps(values, missing)
    return DayTable._checked(tuple(itertools.compress(table.dates, keep.tolist())), values)


def _fill_gaps(values: np.ndarray, missing: np.ndarray) -> None:
    """Fill the ``missing`` cells of the day rows ``values`` in place, as ``np.interp`` does.

    Every day must hold a present reading. The cells are taken by flat
    index, whose differences within a day are slot differences, as runs
    of missing slots of one day. A cell ``x`` between the present cells
    ``lo`` and ``hi`` that bound its run gets ``(y_hi - y_lo) / (hi - lo)
    * (x - lo) + y_lo``, the operations of ``np.interp`` in its order, so
    the bits are its bits; a run at a day edge takes the nearest reading.
    Only arrays over the missing cells are allocated.
    """
    cells = np.flatnonzero(missing)
    if not cells.size:
        return
    # the cells that open a run: not next to the previous missing cell, or first of a day
    opens = np.ones(cells.size, dtype=bool)
    opens[1:] = (np.diff(cells) != 1) | (cells[1:] % SLOTS_PER_DAY == 0)
    first, last = cells[opens], cells[np.append(opens[1:], True)]
    # a run's bounding present cells; at a day edge its one neighbour stands for both
    lo = np.where(first % SLOTS_PER_DAY == 0, last + 1, first - 1)
    hi = np.where(last % SLOTS_PER_DAY == SLOTS_PER_DAY - 1, lo, last + 1)
    run = np.cumsum(opens) - 1
    lo, hi = lo[run], hi[run]
    filled = np.take(values, lo)
    inner = hi > lo
    y_lo, lo, hi = filled[inner], lo[inner], hi[inner]
    filled[inner] = (np.take(values, hi) - y_lo) / (hi - lo) * (cells[inner] - lo) + y_lo
    np.put(values, cells, filled)


def _design_matrix(x: np.ndarray, n_basis: int) -> np.ndarray:
    """Values (points, n_basis) of the clamped cubic B-splines at points ``x`` in [0, 1].

    de Boor's triangular recursion (de Boor 1972), vectorised over the points.
    """
    # the clamped cubic knot vector, with n_basis - 4 uniform interior knots
    t = np.concatenate([np.zeros(4), np.linspace(0.0, 1.0, n_basis - 2)[1:-1], np.ones(4)])
    # each point's knot interval [t_i, t_i+1); the end point 1 falls in the last nonempty one
    i = np.clip(np.searchsorted(t, x, side="right") - 1, 3, n_basis - 1)[:, None]
    x = x[:, None]
    b = np.ones((len(x), 1))
    for d in range(1, 4):
        # b holds the splines B_i-d+1 .. B_i of degree d - 1 that are nonzero at x
        right, left = t[i + np.arange(1, d + 1)], t[i + np.arange(1 - d, 1)]
        w = b / (right - left)
        b = np.zeros((len(x), d + 1))
        b[:, 1:] = w * (x - left)
        b[:, :-1] += w * (right - x)
    design = np.zeros((len(x), n_basis))
    np.put_along_axis(design, i - 3 + np.arange(4), b, axis=1)
    return design


def smooth_days(day_values: np.ndarray, config: PipelineConfig) -> np.ndarray:
    """Least-squares B-spline smoothing of day rows onto the output grid.

    ``day_values`` is (n_days, 48), one transformed-and-centered day per
    row, sampled at the half-hour slot midpoints; the result is
    (n_days, output_grid_size). The map is linear in the inputs.
    """
    day_values = np.atleast_2d(np.asarray(day_values, dtype=float))
    if day_values.shape[1] != SLOTS_PER_DAY:
        raise ValueError(f"day rows must have {SLOTS_PER_DAY} values")
    midpoints = (np.arange(SLOTS_PER_DAY) + 0.5) / SLOTS_PER_DAY
    design = _design_matrix(midpoints, config.n_basis)
    if np.linalg.matrix_rank(design) < config.n_basis:
        raise NumericalError("B-spline design matrix is rank deficient")
    coeffs, *_ = np.linalg.lstsq(design, day_values.T, rcond=None)
    grid = uniform_grid(config.output_grid_size)
    return (_design_matrix(grid.points, config.n_basis) @ coeffs).T


def preprocess_curves(table: DayTable, config: PipelineConfig) -> PreprocessedCurves:
    """Square-root transform, weekday centering, and B-spline smoothing.

    The weekday mean profiles are computed once over the whole kept sample
    (on the transformed scale) and subtracted from each day. Each centered
    day is projected onto the cubic B-spline basis by least squares, using
    the 48 slot midpoints mapped to [0, 1] as abscissae, and evaluated on
    the uniform output grid.
    """
    if len(table) < 14:
        raise InsufficientDataError(
            f"need at least 14 complete days to estimate weekday profiles, got {len(table)}"
        )
    if np.isnan(table.values).any():
        raise ValueError("days must be complete; run filter_and_interpolate first")
    transformed = np.sqrt(table.values)

    weekdays = np.array([d.weekday() for d in table.dates])
    weekday_means = np.full((7, SLOTS_PER_DAY), np.nan)
    for wd in range(7):
        mask = weekdays == wd
        if mask.any():
            weekday_means[wd] = transformed[mask].mean(axis=0)
    centered = transformed - weekday_means[weekdays]

    curves = smooth_days(centered, config)
    sample = FunctionalSample(curves, uniform_grid(config.output_grid_size))
    return PreprocessedCurves(sample, weekday_means, table.dates)


def rolling_forecast(
    sample: FunctionalSample,
    config: RollingConfig,
    dates=None,
    log: RunLog | None = None,
) -> RollingResult:
    """One-step-ahead forecasts of every method from a sliding window with periodic refits.

    Evaluation days are the curves after the first ``config.window``. They
    fall into refit blocks of ``config.refit_interval`` days; at the start
    of each block every method is fitted on the ``window`` curves
    immediately before it, all from one shared decomposition of that
    window. The ridge strength of ``tikhonov:cv`` is selected by forward
    5-fold cross-validation over the eigenvalue-scaled grid. Every window
    is fitted in the coordinates of the whole sample's
    ``span_coordinates``, and the windows of ``BATCH_SIZE`` consecutive
    blocks are fitted as one stack through ``fit_methods``, which gives
    each window the fit it would get alone. Every day of a block is
    forecast from the previous day's curve, and a day's error is the
    flat 1/M mean of its squared pointwise errors. A stack's blocks are
    scored together by ``_score_stack``, with the bits each block gets
    from ``apply_kernel_matrix`` alone. Under the ``exclude-cross-gap``
    policy, days more than one calendar day after their predecessor in
    ``dates`` are skipped and counted; the refit schedule does not move.
    The dates serve that policy only. A failed fit marks its method's
    whole block as failed without stopping the run; the windows of a stack
    whose step raised are refitted alone. The result's ``log``, a fresh
    ``RunLog`` when None, laps ``fit_methods``' stages and ``score`` and
    counts the windows, those refitted alone, and under ``"tikhonov:cv"``
    those whose strength is the first or last candidate of the grid.
    """
    log = RunLog() if log is None else log
    n = sample.n
    if n <= config.window:
        raise InsufficientDataError(
            f"rolling evaluation needs more than window={config.window} curves, got {n}"
        )
    if dates is not None:
        dates = list(dates)
        if len(dates) != n:
            raise ValueError("dates must match the sample length")
    kept = np.ones(n, dtype=bool)
    if config.gap_policy == "exclude-cross-gap":
        if dates is None:
            raise ValueError("exclude-cross-gap policy needs the curve dates")
        kept[1:] = np.diff(np.array(dates, dtype="datetime64[D]")) <= np.timedelta64(1, "D")

    methods = [parse_method(label) for label in config.methods]
    refit = config.refit_interval
    coords = span_coordinates(sample)
    starts = np.arange(config.window, n, refit)
    # errors per method and day; tuning and error text per method and block
    ise = np.full((len(methods), n), np.nan)
    tuning = np.full((len(methods), len(starts)), np.nan)
    errors = np.full((len(methods), len(starts)), None)
    for first in range(0, len(starts), BATCH_SIZE):
        chunk = starts[first : first + BATCH_SIZE]
        stack = coords.windows(chunk - config.window, config.window)
        fitted = fit_methods(stack, methods, cv_scheme="k-fold-forward", log=log)
        log.count("tikhonov:cv", coords.rank, fitted)
        for i, outcome in enumerate(fitted):
            tuning[i, first : first + len(chunk)] = outcome.tuning
            errors[i, first : first + len(chunk)] = outcome.errors
        _score_stack(coords, sample.values, chunk, refit, fitted, ise)
        log.lap("score")
    days = np.flatnonzero(kept[config.window :]) + config.window
    blocks = (days - config.window) // refit
    return RollingResult(
        days,
        days == starts[blocks],
        ise[:, days],
        tuning[:, blocks],
        errors[:, blocks],
        n - config.window - days.size,
        coords.rank,
        log,
    )


def _score_stack(coords: SpanCoordinates, values, starts, refit: int, fitted, ise) -> None:
    """Write each method's errors of the days of the B blocks at ``starts`` into ``ise``.

    ``ise`` is (P, n), one row per method over the sample's days, and
    ``fitted`` holds each method's ``FitOutcome``, one row per block. A block holds
    ``refit`` days, fewer only at the end of the sample; the days of a
    failed fit are left as they are. The blocks of one length are
    consecutive, so their predecessor days are one run of rows, encoded
    once as a (B', L, M) view, and their errors one run of each method's
    row, written through a (B', L) view. Each method then forecasts its
    fitted blocks of that length in one stacked product.
    """
    n, m = values.shape
    lengths = np.minimum(refit, n - starts)
    for length in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == length)
        first, stop = int(starts[group[0]]), int(starts[group[-1]]) + length
        lags = coords.encode(values[first - 1 : stop - 1].reshape(-1, length, m))
        targets = values[first:stop].reshape(-1, length, m)
        for errors, outcome in zip(ise, fitted):
            ok = np.equal(outcome.errors, None)[group]
            if not ok.any():
                continue
            # a full selection stays a view of the days
            sel = slice(None) if ok.all() else ok
            errors[first:stop].reshape(-1, length)[sel] = _stacked_errors(
                coords, lags[sel], targets[sel], outcome.matrices[group[ok]]
            )


def _stacked_errors(coords: SpanCoordinates, lags, targets, matrices) -> np.ndarray:
    """Mean squared errors (B, L) of forecasting ``targets`` (B, L, M) from encoded ``lags``.

    Block b is forecast by ``matrices[b]``. Numpy's stacked matmul calls
    BLAS once per block, with the shapes and strides of
    ``apply_kernel_matrix`` on that block alone, and every other step is
    elementwise or reduces each day on its own, so every error has the
    bits of its block scored alone. (A flattened (B*L, M) product does
    not: BLAS may order its sums differently for other shapes.) The
    residual is formed in the forecasts' buffer, which is freed on return.
    """
    forecasts = coords.decode(lags @ matrices.swapaxes(-1, -2))
    residual = np.subtract(targets, forecasts, out=forecasts)
    return np.square(residual, out=residual).mean(axis=-1)
