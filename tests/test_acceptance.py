"""Acceptance gates for the package, one test per criterion.

Run with ``pytest -s -v tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion. The benchmark-driven criteria (5-8, 12) share a single
default benchmark run; criterion 12 performs a full second run.

Criterion 7 checks the tuning rate of the cross-validated ridge against a
reference the package does not compute: the forecast oracle, i.e. the grid
strength with the smallest ``misfe`` on each replication's own test path.
The gate regenerates the benchmark's train/test pairs from the documented
seed streams and asserts that the pooled log-log slope of the CV strength
stays within 0.15 of the oracle's (-0.673 against -0.640 for the default
seed). The paper's rate is stated for the estimation error under an
a-priori strength and gives no window for the slope of a data-driven one;
in this 40-dimensional Fourier generator the best forecast strength falls
faster than that a-priori strength, so a fixed window would test the
generator rather than the selector.
"""

import datetime as dt
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from benchmark_rows import record_rows
from farkit.cli import write_records_csv
from farkit.evaluate import (
    BenchmarkConfig,
    TheoryProbe,
    mean_misfe_table,
    misfe,
    rate_slope,
    rate_slope_from_report,
    regret_table,
    run_benchmark,
    tuning_summary,
    verify_bias_bound,
    worst_case_table,
)
from farkit.fpca import eigendecompose, fpca_far_fit, select_k
from farkit.grid import uniform_grid
from farkit.moments import (
    FunctionalSample,
    apply_kernel_matrix,
    span_coordinates,
    weighted_moments,
)
from farkit.preprocess import (
    DayTable,
    PipelineConfig,
    RollingConfig,
    filter_and_interpolate,
    rolling_forecast,
    smooth_days,
)
from farkit.simulate import REGIMES, draw_regime_operator, simulate_far1
from farkit.tikhonov import HOLDOUT_ALPHAS, _block_losses, cv_select_alpha, tikhonov_fit
from rolling_rows import forecast_rows
from test_tikhonov import naive_holdout_cv


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def benchmark_report():
    return run_benchmark(BenchmarkConfig())


# codes and tags of the documented benchmark seed streams:
# SeedSequence([master_seed, regime_code]) draws a regime's operator and
# SeedSequence([master_seed, regime_code, n, replication, tag]) its paths
REGIME_CODES = {"I": 1, "II": 2, "III": 3}
TRAIN_TAG, TEST_TAG = 0, 1


def benchmark_path_pairs(config):
    """Yield (regime, n, replication, train, test) for every benchmark replication."""
    for regime in config.regimes:
        spec = REGIMES[regime]
        code = REGIME_CODES[regime]
        op = draw_regime_operator(spec, np.random.SeedSequence([config.master_seed, code]))
        for n in config.n_values:
            for rep in range(config.replications):
                def seed(tag):
                    return np.random.SeedSequence([config.master_seed, code, n, rep, tag])

                train = simulate_far1(op, spec, n, seed(TRAIN_TAG))
                test = simulate_far1(op, spec, config.test_length, seed(TEST_TAG))
                yield regime, n, rep, train, test


def forecast_error_sweep(train, test, alphas):
    """``misfe`` on ``test`` of the ridge fit to ``train``, for every alpha.

    ``misfe`` is uncentred, while the holdout CV sweep centres lags and
    targets at the training mean; shifting both by that mean first makes the
    centring cancel, so the CV sweep's one-block kernel computes the
    forecast error itself.
    """
    coords = span_coordinates(train)
    mean = coords.values.mean(axis=0)
    lags, targets = coords.encode(test.values[:-1]), coords.encode(test.values[1:])
    dec = eigendecompose(weighted_moments(coords))
    return _block_losses(dec, lags + mean, targets + mean, alphas)


def test_criterion_01_ridge_oracle_equivalence():
    with criterion(1, "ridge spectral route matches dense solves"):
        rng = np.random.default_rng(101)
        alphas = HOLDOUT_ALPHAS
        start = time.perf_counter()
        for _ in range(25):
            n = int(rng.integers(40, 121))
            m = int(rng.integers(11, 42))
            g = uniform_grid(m)
            coords = span_coordinates(FunctionalSample(rng.standard_normal((n, m)), g))
            dec = eigendecompose(weighted_moments(coords))
            mom = dec.moments
            for alpha in alphas:
                est = tikhonov_fit(coords, alpha, decomposition=dec)
                dense = np.linalg.solve(
                    (mom.c0 + alpha * np.eye(coords.dim)).T, mom.c1.T
                ).T
                spectral = est.matrix
                err = np.linalg.norm(spectral - dense)
                assert err <= 1e-10 * np.linalg.norm(dense)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_fast_cv_equivalence():
    with criterion(2, "fast CV path equals naive per-alpha refits"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for _ in range(10):
            n = int(rng.integers(40, 121))
            m = int(rng.integers(11, 42))
            sample = FunctionalSample(rng.standard_normal((n, m)), uniform_grid(m))
            coords = span_coordinates(sample)
            cv = cv_select_alpha(coords, eigendecompose(weighted_moments(coords)))
            fast = np.array([l for _, l in cv.cv_curve])
            naive = naive_holdout_cv(sample, HOLDOUT_ALPHAS)
            assert fast.shape == (25,)
            assert np.abs(fast - naive).max() <= 1e-9 * np.abs(naive).max()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_truncation_ridge_limit():
    with criterion(3, "full-rank truncation matches vanishing ridge"):
        rng = np.random.default_rng(303)
        start = time.perf_counter()
        for _ in range(10):
            m = int(rng.integers(6, 21))
            n = int(rng.integers(max(m + 1, 3 * m), 121))
            sample = FunctionalSample(rng.standard_normal((n, m)), uniform_grid(m))
            coords = span_coordinates(sample)
            dec = eigendecompose(weighted_moments(coords))
            full = fpca_far_fit(coords, k=m, decomposition=dec)
            ridge = tikhonov_fit(coords, 1e-12 * dec.eigenvalues[0], decomposition=dec)
            x = sample.values[-1:]
            a = apply_kernel_matrix(full, x)
            b = apply_kernel_matrix(ridge, x)
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_04_bias_bound():
    with criterion(4, "regularization bias within its envelope"):
        start = time.perf_counter()
        alphas = HOLDOUT_ALPHAS
        for beta in (0.25, 0.5, 1.0, 2.0):
            probe = TheoryProbe.diagonal(beta)  # eigenvalues k**-2
            rows = verify_bias_bound(probe, alphas)
            violations = [(a, b, bd) for a, b, bd in rows if b > bd]
            assert not violations, violations
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_05_directional_benchmark(benchmark_report):
    with criterion(5, "benchmark regret structure"):
        config = benchmark_report.config
        assert config.replications == 50
        assert len(record_rows(benchmark_report)) == 3600
        regrets = regret_table(mean_misfe_table(benchmark_report))
        for regime in config.regimes:
            for n in config.n_values:
                row = {m: regrets[(regime, n, m)] for m in config.methods}
                fpca_sorted = sorted(
                    (v, m) for m, v in row.items() if m.startswith("fpca")
                )
                top_two = {fpca_sorted[-1][1], fpca_sorted[-2][1]}
                # (a) the two high thresholds carry the largest regrets
                assert top_two == {"fpca:0.95", "fpca:0.99"}, (regime, n, row)
                # (c) cross-validated ridge stays within +5% everywhere
                assert row["tikhonov:cv"] <= 5.0, (regime, n, row)
        # (b) the 0.99 threshold inflates small-sample error heavily
        assert regrets[("II", 100, "fpca:0.99")] > 10.0
        assert regrets[("III", 100, "fpca:0.99")] > 10.0
        # (d) the ridge beats every threshold in the wide-spectrum regime
        assert regrets[("III", 100, "tikhonov:cv")] < 0.0
        # single-core budget
        assert sum(benchmark_report.log.stage_seconds.values()) <= 900.0


def test_criterion_06_worst_case_dominance(benchmark_report):
    with criterion(6, "cross-validated ridge smallest worst-case error"):
        config = benchmark_report.config
        worst = worst_case_table(mean_misfe_table(benchmark_report))
        for n in config.n_values:
            ridge = worst[("tikhonov:cv", n)]
            others = [worst[(m, n)] for m in config.methods if m != "tikhonov:cv"]
            assert ridge == min([ridge] + others), (n, ridge, others)


def test_criterion_07_rate_slope(benchmark_report):
    """The CV tuning-rate slope tracks the forecast-oracle slope.

    The oracle strength of a replication is the grid alpha with the smallest
    ``misfe`` on that replication's own test path. Both slopes are pooled
    least-squares fits of mean log10(alpha) per (regime, n) on log10(n).
    For the default config they are -0.673 (CV) and -0.640 (oracle). Over
    replications, a bootstrap gives the oracle slope an SE of 0.020 and the
    difference an SE of 0.038 (99% interval [-0.137, 0.064]), so the 0.15
    bound is about 4 SE. A fixed strength (slope 0) or one drifting as
    (n/100)**0.35 on top of CV (slope near -0.32) both fail the gate.

    The oracle is fitted with the same moment and ridge code as CV, so a
    fault in how that code scales with n would move both slopes alike; the
    1/n and 1/(n-1) moment normalisations are pinned in ``test_moments.py``
    (``TestSampleMoments``) and the unscaled C0 + alpha*I in
    ``test_tikhonov.py::TestTikhonovFit::test_dense_solve_oracle``. The
    a-priori strength behind the paper's error rate has a slope in
    [-1/2, -1/4]; it is printed beside the two slopes but not asserted,
    since it is not a rate for a data-driven strength.
    """
    with criterion(7, "tuning-rate slope tracks the forecast oracle"):
        config = benchmark_report.config
        grid = HOLDOUT_ALPHAS
        selected = {
            (r.regime, r.n, r.replication): r
            for r in record_rows(benchmark_report)
            if r.method == "tikhonov:cv"
        }
        oracle_log_alphas = {}
        for regime, n, rep, train, test in benchmark_path_pairs(config):
            record = selected[(regime, n, rep)]
            assert not record.failed, record.error
            losses = forecast_error_sweep(train, test, np.append(grid, record.tuning))
            # the regenerated pair is the benchmark's own: the sweep
            # reproduces the forecast error recorded for the CV fit
            assert abs(losses[-1] - record.misfe) <= 1e-9 * record.misfe, (regime, n, rep)
            losses = losses[:-1]
            best = int(np.argmin(losses))
            oracle_log_alphas.setdefault((regime, n), []).append(np.log10(grid[best]))
            if rep == 0:
                coords = span_coordinates(train)
                dec = eigendecompose(weighted_moments(coords))
                naive = np.array(
                    [misfe(tikhonov_fit(coords, a, decomposition=dec), test) for a in grid]
                )
                assert np.abs(losses - naive).max() <= 1e-9 * np.abs(naive).max()
                assert best == int(np.argmin(naive)), (regime, n)
        oracle_slope = rate_slope((n, np.mean(v)) for (_, n), v in oracle_log_alphas.items())
        cv_slope = rate_slope_from_report(tuning_summary(benchmark_report))
        message = (
            f"CV slope {cv_slope:.3f}, oracle slope {oracle_slope:.3f}, "
            "a-priori strength slope in [-0.50, -0.25]"
        )
        print(f"[criterion 07] {message}")
        assert oracle_slope < 0, message
        assert abs(cv_slope - oracle_slope) <= 0.15, message


def test_criterion_08_tuning_scales(benchmark_report):
    with criterion(8, "tuning levels and their drift with n"):
        config = benchmark_report.config
        summary = tuning_summary(benchmark_report)
        for n in config.n_values:
            assert abs(summary[("I", n, "fpca:0.80")] - 2.0) <= 1.0
        assert 18.0 <= summary[("III", 800, "fpca:0.80")] <= 27.0
        for regime in config.regimes:
            curve = [summary[(regime, n, "tikhonov:cv")] for n in config.n_values]
            assert all(b < a for a, b in zip(curve, curve[1:])), (regime, curve)


def test_criterion_09_k_tau_case_list():
    with criterion(9, "variance-threshold case list on the fixed spectrum"):
        shares = np.array([0.804, 0.091, 0.043, 0.030, 0.012, 0.008, 0.007, 0.005])
        assert shares[3:].sum() == pytest.approx(0.062)
        assert shares[3:].size >= 4
        cases = {tau: select_k(shares, tau) for tau in (0.80, 0.85, 0.90, 0.95, 0.99)}
        assert cases == {0.80: 1, 0.85: 2, 0.90: 3, 0.95: 4, 0.99: 7}


def test_criterion_10_pipeline_properties():
    with criterion(10, "preprocessing and rolling-window properties"):
        cfg = PipelineConfig()

        # cubic reproduction through the least-squares smoother
        x = (np.arange(48) + 0.5) / 48.0
        poly = 0.3 + 1.7 * x - 2.2 * x**2 + 0.9 * x**3
        g = uniform_grid(cfg.output_grid_size)
        expected = 0.3 + 1.7 * g.points - 2.2 * g.points**2 + 0.9 * g.points**3
        smoothed = smooth_days(poly[None, :], cfg)[0]
        assert np.abs(smoothed - expected).max() <= 1e-8

        # missing-data rule: six gaps drop the day, five are filled
        base = np.full(48, 9.0)
        six = base.copy()
        six[:6] = np.nan
        five = base.copy()
        five[:5] = np.nan
        table = DayTable((dt.date(2020, 1, 10), dt.date(2020, 1, 11)), [six, five])
        kept = filter_and_interpolate(table, cfg)
        assert [d.day for d in kept.dates] == [11]
        assert not np.isnan(kept.values).any()

        # fixed year-end exclusion window
        for month, day, expect_kept in (
            (12, 27, True), (12, 28, False), (1, 1, False), (1, 7, False), (1, 8, True),
        ):
            table = DayTable((dt.date(2020, month, day),), [base])
            assert len(filter_and_interpolate(table, cfg)) == expect_kept, (month, day)

        # window arithmetic of the rolling run
        rng = np.random.default_rng(515)
        sample = FunctionalSample(
            np.sin(2 * np.pi * uniform_grid(25).points) * (1 + 0.1 * rng.standard_normal((150, 1)))
            + 0.05 * rng.standard_normal((150, 25)),
            uniform_grid(25),
        )
        rolling = RollingConfig(
            window=100, refit_interval=20, methods=("tikhonov:0.05",), gap_policy="contiguous"
        )
        rows = forecast_rows(rolling_forecast(sample, rolling), rolling.methods)
        assert len(rows) == 150 - 100
        assert [r.index for r in rows if r.refit] == [100, 120, 140]


@pytest.mark.skipif(
    not os.environ.get("FARKIT_PM10_CSV"),
    reason="set FARKIT_PM10_CSV to the raw half-hourly CSV to run the data-gated check",
)
def test_criterion_11_application_soft_check():
    with criterion(11, "application ranking on the external dataset"):
        from farkit.preprocess import load_halfhourly_csv, preprocess_curves

        cfg = PipelineConfig()
        table = load_halfhourly_csv(os.environ["FARKIT_PM10_CSV"])
        prepared = preprocess_curves(filter_and_interpolate(table, cfg), cfg)
        methods = ["fpca:0.80", "fpca:0.85", "fpca:0.90", "fpca:0.95", "fpca:0.99", "tikhonov:cv"]
        rolling = RollingConfig(window=100, refit_interval=20, methods=methods)
        result = rolling_forecast(prepared.sample, rolling, dates=prepared.dates)
        rows = forecast_rows(result, methods)
        means = {}
        for label in methods:
            ises = np.array([r.ise for r in rows if r.method == label and r.error is None])
            means[label] = float(ises.mean())
        best = min(means, key=means.get)
        worst = max(means, key=means.get)
        assert best == "tikhonov:cv", means
        assert worst == "fpca:0.80", means
        regret80 = 100.0 * (means["fpca:0.80"] - means[best]) / means[best]
        assert 5.0 <= regret80 <= 15.0, means


def test_criterion_12_determinism(benchmark_report, tmp_path):
    with criterion(12, "byte-identical records across reruns"):
        second = run_benchmark(BenchmarkConfig())
        first_csv = tmp_path / "records_a.csv"
        second_csv = tmp_path / "records_b.csv"
        write_records_csv(benchmark_report, first_csv)
        write_records_csv(second, second_csv)
        assert first_csv.read_bytes() == second_csv.read_bytes()
