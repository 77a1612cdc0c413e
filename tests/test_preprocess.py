import datetime as dt

import numpy as np
import pytest

import dense_reference
from farkit.errors import InsufficientDataError, SingularSystemError
from farkit.evaluate import fit_method
from farkit.grid import uniform_grid
from farkit.moments import FunctionalSample, span_coordinates
from farkit.preprocess import (
    SLOTS_PER_DAY,
    PipelineConfig,
    RawDayRecord,
    RollingConfig,
    filter_and_interpolate,
    load_halfhourly_csv,
    preprocess_curves,
    rolling_forecast,
    smooth_days,
)

HEADER = "date," + ",".join(f"h{i:02d}" for i in range(1, 49))


def write_csv(path, rows):
    path.write_text("\n".join([HEADER] + rows) + "\n")


def full_row(date, values):
    return f"{date}," + ",".join(str(v) for v in values)


def winter_dates(count, start=dt.date(2019, 1, 8)):
    """Consecutive calendar dates inside the kept window (Jan 8 onward)."""
    return [start + dt.timedelta(days=i) for i in range(count)]


def day_record(date, base=4.0):
    return RawDayRecord(date, np.full(SLOTS_PER_DAY, base))


class TestLoadCsv:
    def test_complete_row(self, tmp_path):
        p = tmp_path / "raw.csv"
        write_csv(p, [full_row("2020-01-10", range(1, 49))])
        records = load_halfhourly_csv(p)
        assert len(records) == 1
        assert records[0].missing_count == 0
        assert records[0].date == dt.date(2020, 1, 10)
        assert records[0].values[0] == 1.0 and records[0].values[-1] == 48.0

    def test_empty_cells_are_missing(self, tmp_path):
        values = [""] * 6 + ["2.0"] * 42
        p = tmp_path / "raw.csv"
        write_csv(p, ["2020-01-10," + ",".join(values)])
        records = load_halfhourly_csv(p)
        assert records[0].missing_count == 6

    def test_sorted_output(self, tmp_path):
        p = tmp_path / "raw.csv"
        write_csv(
            p,
            [
                full_row("2020-01-12", [1.0] * 48),
                full_row("2020-01-10", [2.0] * 48),
                full_row("2020-01-11", [3.0] * 48),
            ],
        )
        dates = [r.date.day for r in load_halfhourly_csv(p)]
        assert dates == [10, 11, 12]

    def test_duplicate_date_rejected(self, tmp_path):
        p = tmp_path / "raw.csv"
        write_csv(p, [full_row("2020-01-10", [1.0] * 48)] * 2)
        with pytest.raises(ValueError, match="line 3.*duplicate"):
            load_halfhourly_csv(p)

    def test_malformed_rows_carry_line_numbers(self, tmp_path):
        p = tmp_path / "raw.csv"
        write_csv(p, [full_row("2020-01-10", [1.0] * 47)])  # one cell short
        with pytest.raises(ValueError, match="line 2"):
            load_halfhourly_csv(p)
        write_csv(p, [full_row("2020-13-40", [1.0] * 48)])
        with pytest.raises(ValueError, match="line 2.*date"):
            load_halfhourly_csv(p)
        write_csv(p, [full_row("2020-01-10", ["x"] + [1.0] * 47)])
        with pytest.raises(ValueError, match="line 2.*reading"):
            load_halfhourly_csv(p)

    def test_header_must_match(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("date,h1,h2\n")
        with pytest.raises(ValueError, match="line 1"):
            load_halfhourly_csv(p)

    def test_negative_reading_rejected(self, tmp_path):
        p = tmp_path / "raw.csv"
        write_csv(p, [full_row("2020-01-10", [-1.0] + [1.0] * 47)])
        with pytest.raises(ValueError, match="line 2"):
            load_halfhourly_csv(p)


class TestFilterAndInterpolate:
    def config(self):
        return PipelineConfig()

    def record(self, date, values):
        return RawDayRecord(date, np.array(values, dtype=float))

    def test_six_missing_dropped_five_kept(self):
        vals6 = [np.nan] * 6 + [1.0] * 42
        vals5 = [np.nan] * 5 + [1.0] * 43
        date = dt.date(2020, 1, 10)
        kept = filter_and_interpolate(
            [self.record(date, vals6), self.record(date + dt.timedelta(1), vals5)],
            self.config(),
        )
        assert len(kept) == 1
        assert kept[0].missing_count == 0

    def test_linear_midpoint_fill(self):
        vals = [1.0, np.nan, 3.0] + [1.0] * 45
        kept = filter_and_interpolate(
            [self.record(dt.date(2020, 1, 10), vals)], self.config()
        )
        assert kept[0].values[1] == pytest.approx(2.0)

    def test_boundary_fill_is_nearest(self):
        vals = [np.nan, np.nan, 5.0] + [1.0] * 44 + [np.nan]
        kept = filter_and_interpolate(
            [self.record(dt.date(2020, 1, 10), vals)], self.config()
        )
        assert kept[0].values[0] == 5.0 and kept[0].values[1] == 5.0
        assert kept[0].values[-1] == 1.0

    def test_summer_dates_dropped(self):
        kept = filter_and_interpolate(
            [self.record(dt.date(2020, 7, 15), [1.0] * 48)], self.config()
        )
        assert kept == []

    def test_exclusion_window_dropped(self):
        cfg = self.config()
        for date in (dt.date(2019, 12, 28), dt.date(2020, 1, 1), dt.date(2020, 1, 7)):
            assert filter_and_interpolate([self.record(date, [1.0] * 48)], cfg) == []
        for date in (dt.date(2019, 12, 27), dt.date(2020, 1, 8), dt.date(2020, 3, 31)):
            assert len(filter_and_interpolate([self.record(date, [1.0] * 48)], cfg)) == 1

    def test_idempotent_on_complete_records(self):
        vals = [1.0, np.nan, 3.0] + [2.0] * 45
        once = filter_and_interpolate(
            [self.record(dt.date(2020, 1, 10), vals)], self.config()
        )
        twice = filter_and_interpolate(once, self.config())
        assert np.array_equal(once[0].values, twice[0].values)


class TestPreprocessCurves:
    def test_constant_days_center_to_zero(self):
        records = [day_record(d, 4.0) for d in winter_dates(14)]
        prepared = preprocess_curves(records, PipelineConfig())
        assert np.abs(prepared.sample.values).max() <= 1e-10
        assert prepared.sample.grid.size == 100
        # weekday means hold the transformed level sqrt(4) = 2
        assert np.allclose(prepared.weekday_means, 2.0)

    def test_cubic_polynomial_reproduced(self):
        cfg = PipelineConfig()
        x = (np.arange(SLOTS_PER_DAY) + 0.5) / SLOTS_PER_DAY
        poly = 1.0 - 2.0 * x + 3.0 * x**2 - 1.5 * x**3
        smoothed = smooth_days(poly[None, :], cfg)[0]
        g = uniform_grid(cfg.output_grid_size)
        expected = 1.0 - 2.0 * g.points + 3.0 * g.points**2 - 1.5 * g.points**3
        assert np.abs(smoothed - expected).max() <= 1e-8

    def test_smoothing_is_linear(self, rng):
        cfg = PipelineConfig()
        a = rng.standard_normal(SLOTS_PER_DAY)
        b = rng.standard_normal(SLOTS_PER_DAY)
        combo = smooth_days((2.0 * a - 0.5 * b)[None, :], cfg)[0]
        parts = 2.0 * smooth_days(a[None, :], cfg)[0] - 0.5 * smooth_days(b[None, :], cfg)[0]
        assert np.abs(combo - parts).max() <= 1e-10

    def test_two_point_weekday_centering(self):
        # two records per weekday; the pair of Mondays centers to +/- half
        # the gap between their transformed values
        dates = winter_dates(14)
        records = []
        for i, d in enumerate(dates):
            level = 9.0 if i < 7 else 1.0
            records.append(day_record(d, level))
        prepared = preprocess_curves(records, PipelineConfig())
        # sqrt levels are 3 and 1, weekday mean 2: centered day values are +/-1
        # and constants are reproduced exactly by the smoother
        assert np.allclose(prepared.sample.values[0], 1.0, atol=1e-10)
        assert np.allclose(prepared.sample.values[7], -1.0, atol=1e-10)

    def test_deterministic(self):
        records = [
            RawDayRecord(d, 4.0 + np.sin(np.arange(48.0) + i))
            for i, d in enumerate(winter_dates(20))
        ]
        a = preprocess_curves(records, PipelineConfig())
        b = preprocess_curves(records, PipelineConfig())
        assert np.array_equal(a.sample.values, b.sample.values)
        assert np.array_equal(a.weekday_means, b.weekday_means)

    def test_needs_fourteen_records(self):
        records = [day_record(d) for d in winter_dates(13)]
        with pytest.raises(InsufficientDataError):
            preprocess_curves(records, PipelineConfig())

    def test_incomplete_records_rejected(self):
        vals = np.full(SLOTS_PER_DAY, 2.0)
        vals[3] = np.nan
        records = [day_record(d) for d in winter_dates(14)]
        records[0] = RawDayRecord(records[0].date, vals)
        with pytest.raises(ValueError):
            preprocess_curves(records, PipelineConfig())


def drifting_sample(n, m=30, seed=0):
    rng = np.random.default_rng(seed)
    g = uniform_grid(m)
    base = np.sin(2 * np.pi * g.points)
    values = np.array(
        [base * (1.0 + 0.1 * np.sin(t / 7.0)) + 0.05 * rng.standard_normal(m) for t in range(n)]
    )
    return FunctionalSample(values, g)


class TestRollingForecast:
    def test_window_arithmetic_150_days(self):
        sample = drifting_sample(150)
        config = RollingConfig(window=100, refit_interval=20, methods=("tikhonov:0.05",),
                               gap_policy="contiguous")
        result = rolling_forecast(sample, config)
        assert len(result.records) == 50
        refit_indices = [r.index for r in result.records if r.refit]
        assert refit_indices == [100, 120, 140]
        assert result.skipped_gaps == 0

    def test_evaluation_day_count_contiguous(self):
        sample = drifting_sample(123)
        config = RollingConfig(window=100, refit_interval=7, methods=("fpca:0.90",),
                               gap_policy="contiguous")
        result = rolling_forecast(sample, config)
        assert len(result.records) == 23

    def test_gap_pairs_skipped_and_counted(self):
        sample = drifting_sample(110)
        dates = winter_dates(105) + [
            dt.date(2019, 6, 1) + dt.timedelta(days=i) for i in range(5)
        ]
        config = RollingConfig(window=100, refit_interval=20, methods=("tikhonov:0.05",))
        result = rolling_forecast(sample, config, dates=dates)
        # the pair crossing index 104 -> 105 spans months: skipped once
        assert result.skipped_gaps == 1
        assert len(result.records) == 9
        assert all(r.index != 105 for r in result.records)

    def test_deterministic(self):
        sample = drifting_sample(140)
        config = RollingConfig(window=100, refit_interval=20, methods=("tikhonov:cv",),
                               gap_policy="contiguous")
        a = rolling_forecast(sample, config)
        b = rolling_forecast(sample, config)
        assert [(r.index, r.ise, r.tuning) for r in a.records] == [
            (r.index, r.ise, r.tuning) for r in b.records
        ]

    def test_constant_sample_zero_operator_baseline(self):
        g = uniform_grid(20)
        level = 3.0
        sample = FunctionalSample(np.full((120, 20), level), g)
        config = RollingConfig(window=100, refit_interval=20, methods=("tikhonov:0.1",),
                               gap_policy="contiguous")
        result = rolling_forecast(sample, config)
        # degenerate series: the ridge fit is the zero operator, so the
        # forecast is zero and the error is the squared curve level
        assert all(r.error is None for r in result.records)
        assert all(r.ise == pytest.approx(level**2, rel=1e-10) for r in result.records)

    def test_failed_refit_marks_block(self):
        g = uniform_grid(10)
        sample = FunctionalSample(np.full((130, 10), 1.0), g)
        # variance-threshold selection is impossible on a zero spectrum
        config = RollingConfig(window=100, refit_interval=20, methods=("fpca:0.90",),
                               gap_policy="contiguous")
        result = rolling_forecast(sample, config)
        assert len(result.records) == 30
        assert all(r.error is not None for r in result.records)
        assert all(np.isnan(r.ise) for r in result.records)

    def test_gap_on_refit_day_keeps_refit_schedule(self):
        sample = drifting_sample(140)
        # day 120 opens the second refit block and comes two days after day 119
        dates = [dt.date(2019, 1, 8) + dt.timedelta(days=t + (t >= 120)) for t in range(140)]
        common = dict(window=100, refit_interval=20, methods=("fpca:0.90", "tikhonov:cv"))
        gapped = rolling_forecast(sample, RollingConfig(**common), dates=dates)
        contiguous = rolling_forecast(
            sample, RollingConfig(gap_policy="contiguous", **common), dates=dates
        )
        assert gapped.skipped_gaps == 1 and contiguous.skipped_gaps == 0
        # the block is still fitted on days 20..119, so its other days are unchanged
        assert comparable(gapped.records) == comparable(
            [r for r in contiguous.records if r.index != 120]
        )

    def test_failed_blocks_then_scored_blocks(self):
        # integer noise with zero column sums keeps the constant days at exactly
        # the sample mean, so their coordinates are exactly zero (constant days
        # off the mean leave rounding residues, which a window then fits)
        noise = np.random.default_rng(3).integers(-3, 4, (20, 10)).astype(float)
        values = np.vstack([np.zeros((130, 10)), noise, -noise])
        sample = FunctionalSample(values, uniform_grid(10))
        config = RollingConfig(window=100, refit_interval=10, methods=("fpca:0.90",),
                               gap_policy="contiguous")
        result = rolling_forecast(sample, config)
        # windows before day 140 are constant: a zero spectrum has no threshold
        assert [r.index for r in result.records] == list(range(100, 170))
        assert [r.refit for r in result.records] == [t % 10 == 0 for t in range(100, 170)]
        failed = [r for r in result.records if r.index < 140]
        scored = [r for r in result.records if r.index >= 140]
        assert all(r.error is not None and np.isnan(r.ise) for r in failed)
        assert all(np.isnan(r.tuning) for r in failed)
        assert all(r.error is None for r in scored)
        coords = span_coordinates(sample)
        for row in scored:
            start = row.index - row.index % 10
            est, _ = fit_method(coords.subsample(start - 100, start), "fpca:0.90")
            forecast = est.predict(sample.curve(row.index - 1)).values
            expected = np.mean((forecast - sample.values[row.index]) ** 2)
            assert row.ise == pytest.approx(expected, rel=1e-10)

    def test_needs_more_than_window(self):
        sample = drifting_sample(100)
        config = RollingConfig(window=100, methods=("fpca:0.90",), gap_policy="contiguous")
        with pytest.raises(InsufficientDataError):
            rolling_forecast(sample, config)

    def test_gap_policy_requires_dates(self):
        sample = drifting_sample(110)
        config = RollingConfig(window=100, methods=("fpca:0.90",))
        with pytest.raises(ValueError):
            rolling_forecast(sample, config)


def spline_sample(n, seed=0):
    """Curves in the 10-dimensional B-spline span of the pipeline: AR(1) days, smoothed."""
    rng = np.random.default_rng(seed)
    days = np.empty((n, SLOTS_PER_DAY))
    days[0] = rng.standard_normal(SLOTS_PER_DAY)
    for t in range(1, n):
        days[t] = 0.6 * days[t - 1] + rng.standard_normal(SLOTS_PER_DAY)
    curves = smooth_days(days + 2.0, PipelineConfig())  # a nonzero mean, too
    return FunctionalSample(curves, uniform_grid(curves.shape[1]))


def comparable(records):
    """Row fields with NaN made comparable."""
    return [
        (r.method, r.index, r.date, repr(r.ise), repr(r.tuning), r.refit, r.error)
        for r in records
    ]


COORDINATE_METHODS = ("fpca:0.80", "fpca:0.95", "fpca:K=3", "tikhonov:0.05", "tikhonov:cv")


class TestSpanCoordinates:
    @pytest.mark.parametrize(
        "sample, rank",
        [(spline_sample(130), 10), (drifting_sample(130), 30)],
        ids=["bspline-rank-10-of-100", "noisy-full-rank-30"],
    )
    def test_matches_direct_grid_fits(self, sample, rank):
        config = RollingConfig(window=100, refit_interval=10, methods=COORDINATE_METHODS,
                               gap_policy="contiguous")
        result = rolling_forecast(sample, config)
        assert result.span_rank == rank
        rows = {(r.method, r.index): r for r in result.records}
        assert len(rows) == len(COORDINATE_METHODS) * 30
        w = sample.grid.weights
        for label in COORDINATE_METHODS:
            for start in (100, 110, 120):
                window = sample.values[start - 100 : start]
                kernel, tuning = dense_reference.fit(window, w, label, "k-fold-forward")
                for t in range(start, start + 10):
                    row = rows[(label, t)]
                    assert row.error is None
                    if label.startswith("fpca"):
                        assert row.tuning == tuning
                    else:
                        assert row.tuning == pytest.approx(tuning, rel=1e-9)
                    forecast = kernel @ (w * sample.values[t - 1])
                    expected = np.mean((forecast - sample.values[t]) ** 2)
                    assert row.ise == pytest.approx(expected, rel=1e-10)

    def test_exactly_constant_sample_has_zero_coordinates(self):
        sample = FunctionalSample(np.full((30, 12), 3.0), uniform_grid(12))
        coords = span_coordinates(sample)
        assert coords.rank == 0
        assert coords.basis.shape == (12, 1)
        assert not coords.values.any()


class TestRollingMethods:
    def test_multi_method_run_equals_single_method_runs(self):
        sample = drifting_sample(140)
        labels = ("fpca:0.90", "fpca:K=40", "tikhonov:cv", "tikhonov:0.05")
        common = dict(window=100, refit_interval=9, gap_policy="contiguous")
        joint = rolling_forecast(sample, RollingConfig(methods=labels, **common))
        # method-major rows, in config order
        assert [r.method for r in joint.records] == [m for m in labels for _ in range(40)]
        for label in labels:
            single = rolling_forecast(sample, RollingConfig(methods=(label,), **common))
            assert comparable(single.records) == comparable(
                [r for r in joint.records if r.method == label]
            )

    @pytest.mark.parametrize("label", ["fpca:K=11", "fpca:K=50", "fpca:K=99", "fpca:K=5000"])
    def test_k_beyond_usable_directions_is_one_failure_class(self, label):
        # rank 10 on a 100-point grid: K in (r, M] and K > M fail alike,
        # whether or not the window holds K + 2 curves
        sample = spline_sample(130)
        config = RollingConfig(window=100, refit_interval=10, methods=(label, "fpca:0.9"),
                               gap_policy="contiguous")
        result = rolling_forecast(sample, config)
        failed = [r for r in result.records if r.method == label]
        assert len(failed) == 30
        assert all(r.error.startswith("SingularSystemError:") for r in failed)
        assert all(np.isnan(r.ise) for r in failed)
        assert all(r.error is None for r in result.records if r.method == "fpca:0.9")
        with pytest.raises(SingularSystemError):
            fit_method(span_coordinates(sample.subsample(0, 100)), label)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"methods": ()},
            {"methods": ("fpca:0.9", "fpca:0.9")},
            {"methods": ("fpca:K=0",)},
        ],
    )
    def test_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            RollingConfig(**kwargs)
