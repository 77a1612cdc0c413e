"""Half-hourly concentration data: ingestion, curve building, rolling forecasts.

The pipeline turns raw days of 48 half-hourly readings into smooth curves:
seasonal filtering with a fixed exclusion window, a missing-data rule with
linear gap filling, a square-root variance-stabilizing transform, centering
by day-of-week mean profiles, and penalized-free least-squares smoothing
onto a small cubic B-spline basis evaluated on a uniform output grid. The
rolling driver then scores one-step forecasts from a sliding training
window with periodic refitting.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from .errors import InsufficientDataError, NumericalError
from .evaluate import fit_methods, parse_method, tuning_value
from .grid import uniform_grid
from .moments import FunctionalSample, apply_kernel_matrix, span_coordinates

__all__ = [
    "SLOTS_PER_DAY",
    "RawDayRecord",
    "PipelineConfig",
    "RollingConfig",
    "PreprocessedCurves",
    "ForecastOutcome",
    "RollingResult",
    "load_halfhourly_csv",
    "filter_and_interpolate",
    "preprocess_curves",
    "smooth_days",
    "rolling_forecast",
]

SLOTS_PER_DAY = 48

CSV_HEADER = ["date"] + [f"h{i:02d}" for i in range(1, SLOTS_PER_DAY + 1)]


@dataclass(frozen=True, eq=False)
class RawDayRecord:
    """One calendar day of half-hourly readings; NaN marks a missing slot."""

    date: dt.date
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != (SLOTS_PER_DAY,):
            raise ValueError(f"a day carries exactly {SLOTS_PER_DAY} half-hour slots")
        present = values[~np.isnan(values)]
        if np.any(~np.isfinite(present)):
            raise ValueError("readings must be finite or missing")
        if np.any(present < 0):
            raise ValueError("concentration readings cannot be negative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def missing_count(self) -> int:
        return int(np.isnan(self.values).sum())


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


@dataclass(frozen=True, slots=True)
class ForecastOutcome:
    """One evaluated day of the rolling protocol for one method.

    Slotted: a backtest holds one per method and evaluation day at once.
    """

    method: str
    index: int
    date: dt.date | None
    ise: float
    tuning: float
    refit: bool
    error: str | None = None


@dataclass(frozen=True)
class RollingResult:
    """Forecast rows, method-major in config order, plus run diagnostics."""

    records: tuple
    skipped_gaps: int  # evaluation days skipped by the gap policy, per method
    span_rank: int  # numerical rank of the sample's centred sqrt-weighted curves


def load_halfhourly_csv(path) -> list:
    """Read `date,h01..h48` rows into day records, sorted by date.

    Empty cells denote missing readings; dates must be ISO-8601 and unique.
    Parse problems raise ValueError with the offending line number.
    """
    records = []
    seen = set()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"line 1: expected header {','.join(CSV_HEADER)!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != SLOTS_PER_DAY + 1:
                raise ValueError(
                    f"line {line_no}: expected {SLOTS_PER_DAY + 1} cells, got {len(row)}"
                )
            try:
                date = dt.date.fromisoformat(row[0])
            except ValueError as exc:
                raise ValueError(f"line {line_no}: bad date {row[0]!r}") from exc
            if date in seen:
                raise ValueError(f"line {line_no}: duplicate date {date.isoformat()}")
            seen.add(date)
            values = np.full(SLOTS_PER_DAY, np.nan)
            for i, cell in enumerate(row[1:]):
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    values[i] = float(cell)
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: bad reading {cell!r}") from exc
            try:
                records.append(RawDayRecord(date, values))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from exc
    records.sort(key=lambda r: r.date)
    return records


def _in_window(date: dt.date, start: tuple, end: tuple) -> bool:
    md = (date.month, date.day)
    if start <= end:
        return start <= md <= end
    return md >= start or md <= end


def filter_and_interpolate(records, config: PipelineConfig) -> list:
    """Keep in-season days outside the exclusion window and fill their gaps.

    Days with more missing readings than ``config.max_missing`` are
    dropped. Remaining gaps are filled by linear interpolation over the
    slot index; gaps touching a day boundary take the nearest reading.
    """
    kept = []
    idx = np.arange(SLOTS_PER_DAY, dtype=float)
    for record in records:
        if not _in_window(record.date, config.season_start, config.season_end):
            continue
        if _in_window(record.date, config.exclusion_start, config.exclusion_end):
            continue
        if record.missing_count > config.max_missing:
            continue
        values = record.values
        present = ~np.isnan(values)
        if not present.all():
            values = np.interp(idx, idx[present], values[present])
        kept.append(RawDayRecord(record.date, values))
    return kept


def _spline_knots(n_basis: int) -> np.ndarray:
    # clamped cubic knot vector with n_basis - 4 uniform interior knots
    interior = np.linspace(0.0, 1.0, n_basis - 2)[1:-1]
    return np.concatenate([np.zeros(4), interior, np.ones(4)])


def _design_matrix(x: np.ndarray, n_basis: int) -> np.ndarray:
    knots = _spline_knots(n_basis)
    return BSpline.design_matrix(x, knots, 3).toarray()


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


def preprocess_curves(records, config: PipelineConfig) -> PreprocessedCurves:
    """Square-root transform, weekday centering, and B-spline smoothing.

    The weekday mean profiles are computed once over the whole kept sample
    (on the transformed scale) and subtracted per record. Each centered
    day is projected onto the cubic B-spline basis by least squares, using
    the 48 slot midpoints mapped to [0, 1] as abscissae, and evaluated on
    the uniform output grid.
    """
    records = list(records)
    if len(records) < 14:
        raise InsufficientDataError(
            f"need at least 14 complete days to estimate weekday profiles, got {len(records)}"
        )
    raw = np.vstack([r.values for r in records])
    if np.isnan(raw).any():
        raise ValueError("records must be complete; run filter_and_interpolate first")
    transformed = np.sqrt(raw)

    weekdays = np.array([r.date.weekday() for r in records])
    weekday_means = np.full((7, SLOTS_PER_DAY), np.nan)
    for wd in range(7):
        mask = weekdays == wd
        if mask.any():
            weekday_means[wd] = transformed[mask].mean(axis=0)
    centered = transformed - weekday_means[weekdays]

    curves = smooth_days(centered, config)
    sample = FunctionalSample(curves, uniform_grid(config.output_grid_size))
    return PreprocessedCurves(sample, weekday_means, tuple(r.date for r in records))


def rolling_forecast(
    sample: FunctionalSample,
    config: RollingConfig,
    dates=None,
) -> RollingResult:
    """One-step-ahead forecasts of every method from a sliding window with periodic refits.

    Evaluation days are the curves after the first ``config.window``. They
    fall into refit blocks of ``config.refit_interval`` days; at the start
    of each block every method is fitted on the ``window`` curves
    immediately before it, all from one shared decomposition of that
    window. The ridge strength of ``tikhonov:cv`` is selected by forward
    5-fold cross-validation over the eigenvalue-scaled grid. Every window
    is fitted in the coordinates of the whole sample's
    ``span_coordinates``. Each estimate then forecasts every day of its
    block from the previous day's curve in one batched application, and a
    day's error is the flat 1/M mean of its squared pointwise errors.
    Under the ``exclude-cross-gap`` policy, days more than one calendar
    day after their predecessor are skipped and counted; the refit
    schedule does not move. A failed fit marks its method's whole block
    as failed without stopping the run.
    """
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
    coords = span_coordinates(sample)
    values = sample.values
    rows = {method.label: [] for method in methods}
    for start in range(config.window, n, config.refit_interval):
        stop = min(start + config.refit_interval, n)
        days = [t for t in range(start, stop) if kept[t]]
        outcomes = fit_methods(
            coords.subsample(start - config.window, start), methods, cv_scheme="k-fold-forward"
        )
        for method, outcome in zip(methods, outcomes):
            est = outcome.estimate
            if est is None:
                errors, tuning = np.full(stop - start, np.nan), float("nan")
            else:
                forecasts = apply_kernel_matrix(est, values[start - 1 : stop - 1])
                residual = values[start:stop] - forecasts
                errors, tuning = np.mean(residual**2, axis=1), tuning_value(est)
            rows[method.label].extend(
                ForecastOutcome(
                    method.label,
                    t,
                    dates[t] if dates is not None else None,
                    float(errors[t - start]),
                    tuning,
                    t == start,
                    outcome.error,
                )
                for t in days
            )
    records = tuple(row for method in methods for row in rows[method.label])
    return RollingResult(records, int(np.count_nonzero(~kept[config.window :])), coords.rank)
