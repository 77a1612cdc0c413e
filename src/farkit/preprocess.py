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
import time
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from .errors import InsufficientDataError, NumericalError
from .evaluate import fit_methods, parse_method, tuning_value
from .grid import uniform_grid
from .moments import FunctionalSample, SpanCoordinates, span_coordinates

__all__ = [
    "SLOTS_PER_DAY",
    "BATCH_SIZE",
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

# refit windows of a rolling backtest fitted and scored as one stack; larger
# stacks are hardly faster and hold larger temporaries: about 1 MB to fit 64
# windows of 100 ten-coordinate curves, and about 2 MB to decode one
# method's forecasts of 64 blocks of 20 days on a 100-point grid
BATCH_SIZE = 64

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
    single_member_refits: int = 0  # windows refitted alone after their stack's step raised
    # tikhonov:cv windows whose strength is the first or last candidate of the CV grid
    cv_edge_selections: int = 0
    fit_seconds: float = 0.0  # span coordinates and window fits
    score_seconds: float = 0.0  # forecasting and scoring the blocks, and building their rows


def load_halfhourly_csv(path) -> list:
    """Read `date,h01..h48` rows into day records, sorted by date.

    Empty cells denote missing readings; dates must be ISO-8601 and unique.
    Parse problems, the csv module's own errors included, raise ValueError
    with the offending line number.
    """
    records = []
    seen = set()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
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
        except csv.Error as exc:
            # e.g. a cell longer than the csv module's field size limit
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
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
    ``span_coordinates``, and the windows of ``BATCH_SIZE`` consecutive
    blocks are fitted as one stack through ``fit_methods``, which gives
    each window the fit it would get alone. Every day of a block is
    forecast from the previous day's curve, and a day's error is the
    flat 1/M mean of its squared pointwise errors. A stack's blocks are
    scored together by ``_score_stack``, with the bits each block gets
    from ``apply_kernel_matrix`` alone. Under the ``exclude-cross-gap``
    policy, days more than one calendar day after their predecessor are
    skipped and counted; the refit schedule does not move. A failed fit
    marks its method's whole block as failed without stopping the run;
    the windows of a stack whose step raised are refitted alone and
    counted in ``single_member_refits``. ``cv_edge_selections`` counts
    the ``tikhonov:cv`` windows whose strength is the first or last
    candidate of the grid.
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
    refit = config.refit_interval
    t0 = time.perf_counter()
    coords = span_coordinates(sample)
    fit_seconds, score_seconds = time.perf_counter() - t0, 0.0
    rows = {method.label: [] for method in methods}
    refit_alone = cv_edges = 0
    starts = np.arange(config.window, n, refit)
    for first in range(0, len(starts), BATCH_SIZE):
        chunk = starts[first : first + BATCH_SIZE]
        t0 = time.perf_counter()
        stack = coords.windows(chunk - config.window, config.window)
        fitted = list(fit_methods(stack, methods, cv_scheme="k-fold-forward"))
        t1 = time.perf_counter()
        # a window counts once, however many of its methods were refit alone
        refit_alone += sum(any(o.refit_alone for o in window) for window in zip(*fitted))
        cv_edges += sum(o.cv_at_grid_edge for outcomes in fitted for o in outcomes)
        ises = _score_stack(coords, sample.values, chunk, refit, fitted)
        for method, outcomes, errors in zip(methods, fitted, ises):
            for start, outcome, block in zip(chunk.tolist(), outcomes, errors.tolist()):
                est = outcome.estimate
                tuning = float("nan") if est is None else tuning_value(est)
                rows[method.label].extend(
                    ForecastOutcome(
                        method.label,
                        t,
                        dates[t] if dates is not None else None,
                        block[t - start],
                        tuning,
                        t == start,
                        outcome.error,
                    )
                    for t in range(start, min(start + refit, n))
                    if kept[t]
                )
        fit_seconds += t1 - t0
        score_seconds += time.perf_counter() - t1
    records = tuple(row for method in methods for row in rows[method.label])
    return RollingResult(
        records,
        int(np.count_nonzero(~kept[config.window :])),
        coords.rank,
        single_member_refits=refit_alone,
        cv_edge_selections=cv_edges,
        fit_seconds=fit_seconds,
        score_seconds=score_seconds,
    )


def _score_stack(coords: SpanCoordinates, values, starts, refit: int, fitted) -> list:
    """Per method, the (B, L) errors of the days of the B blocks at ``starts``.

    ``fitted`` holds each method's outcomes, one per block. A block holds
    ``refit`` days, fewer only at the end of the sample, and L is the
    longest; an error is NaN past its block's end and wherever the block's
    fit failed. The blocks of one length are consecutive, so their
    predecessor days are one run of rows, encoded once as a (B', L, M)
    view. Each method then forecasts its fitted blocks of that length in
    one stacked product.
    """
    n, m = values.shape
    lengths = np.minimum(refit, n - starts)
    ises = [np.full((len(starts), lengths.max()), np.nan) for _ in fitted]
    for length in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == length)
        first, stop = int(starts[group[0]]), int(starts[group[-1]]) + length
        lags = coords.encode(values[first - 1 : stop - 1].reshape(-1, length, m))
        targets = values[first:stop].reshape(-1, length, m)
        for errors, outcomes in zip(ises, fitted):
            ok = np.array([outcomes[i].estimate is not None for i in group])
            if not ok.any():
                continue
            # a full selection stays a view of the days
            sel = slice(None) if ok.all() else ok
            matrices = np.stack([outcomes[i].estimate.matrix for i in group[ok]])
            errors[group[ok], :length] = _stacked_errors(coords, lags[sel], targets[sel], matrices)
    return ises


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
