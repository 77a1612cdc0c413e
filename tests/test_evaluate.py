import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import benchmark_reference
import dense_reference
from benchmark_rows import record_rows
from fit_rows import member_fit, member_fits
from farkit import evaluate
from farkit.errors import GridError, InsufficientDataError
from farkit.evaluate import (
    BATCH_SIZE,
    FIT_ERRORS,
    STACK_CURVES,
    BenchmarkConfig,
    BenchmarkReport,
    MethodSpec,
    RunLog,
    TheoryProbe,
    fit_method,
    fit_methods,
    mean_misfe_table,
    misfe,
    parse_method,
    rate_slope,
    regret_table,
    run_benchmark,
    run_verification_suite,
    tuning_summary,
    verify_bias_bound,
    worst_case_table,
)
from conftest import grid_operator, unit_weight_grid
from farkit.fpca import eigendecompose
from farkit.grid import QuadratureGrid, make_trapezoid_grid, uniform_grid
from farkit.moments import (
    FunctionalSample,
    OperatorEstimate,
    SpanCoordinates,
    apply_kernel_matrix,
    span_coordinates,
    weighted_moments,
)
from farkit.simulate import (
    REGIMES,
    draw_regime_operator,
    fourier_basis,
    operator_kernel,
    simulate_far1,
    simulate_states,
)
from farkit.tikhonov import HOLDOUT_ALPHAS, cv_select_alpha
from test_preprocess import spline_sample


class TestParseMethod:
    def test_forms(self):
        assert parse_method("fpca:0.80").tau == 0.80
        assert parse_method("fpca:K=7").k == 7
        assert parse_method("tikhonov:0.1").alpha == 0.1
        assert parse_method("tikhonov:cv").cv is True

    def test_rejects_malformed(self):
        for bad in (
            "fpca", "fpca:1.5", "tikhonov:-1", "ridge:0.1", "fpca:",
            "fpca:K=0", "fpca:K=-3", "fpca:K=abc", "fpca:K=2.5", "fpca:abc", "fpca:nan",
            "tikhonov:nan", "tikhonov:inf", "tikhonov:abc",
        ):
            with pytest.raises(ValueError):
                parse_method(bad)


def ar_window(rng, n=60, r=12, rank=12):
    """AR(1) coordinates whose innovations fill the leading ``rank`` of r directions."""
    scale = np.zeros(r)
    scale[:rank] = rng.uniform(0.2, 2.0, rank)
    values = np.zeros((n, r))
    for t in range(1, n):
        values[t] = 0.5 * values[t - 1] + scale * rng.standard_normal(r)
    return values


STACK_LABELS = ["fpca:0.90", "fpca:0.60", "fpca:K=11", "tikhonov:0.1", "tikhonov:cv"]


def assert_same_outcome(stacked, alone):
    """Two ``MemberFit`` rows hold the same bits."""
    assert stacked.error == alone.error
    if alone.matrix is None:
        assert stacked.matrix is None
        return
    assert np.array_equal(stacked.matrix, alone.matrix)
    assert stacked.tuning == alone.tuning
    assert (stacked.cv is None) == (alone.cv is None)
    if alone.cv is not None:
        assert stacked.cv.selected_alpha == alone.cv.selected_alpha
        assert stacked.cv.cv_curve == alone.cv.cv_curve


class TestFitMethods:
    def test_shared_decomposition_matches_single_fits(self, rng):
        coords = span_coordinates(FunctionalSample(rng.standard_normal((60, 9)), uniform_grid(9)))
        labels = ["fpca:0.9", "fpca:K=2", "tikhonov:0.1", "tikhonov:cv"]
        for label, outcome in zip(labels, fit_methods(coords, labels)):
            row = member_fit(outcome, 0)
            assert row.error is None
            est, cv = fit_method(coords, label)
            assert np.array_equal(coords.kernel(row.matrix), est.kernel)
            assert row.tuning == est.tuning["k" if label.startswith("fpca") else "alpha"]
            # only the cross-validated fit carries its strength selection,
            # which names the scheme that made it; the tuning holds no scheme
            assert "selected_by" not in est.tuning
            assert (row.cv is None) == (cv is None) == (label != "tikhonov:cv")
            if cv is not None:
                assert row.cv.cv_curve == cv.cv_curve
                assert outcome.cv.scheme == cv.scheme == "holdout"

    def test_non_finite_moments_recorded_as_grid_error(self, rng):
        sample = FunctionalSample(rng.standard_normal((60, 8)) * 1e156, uniform_grid(8))
        with np.errstate(over="ignore"):
            fitted = fit_methods(span_coordinates(sample), ["tikhonov:0.1", "fpca:0.9"])
        outcomes = member_fits(fitted, 0)
        assert [o.matrix for o in outcomes] == [None, None]
        assert all(o.error.startswith("GridError:") for o in outcomes)

    def test_overflowing_cv_losses_recorded_as_numerical_error(self, rng):
        # finite moments, but the validation losses overflow to inf - inf
        sample = FunctionalSample(rng.standard_normal((60, 8)) * 1e150, uniform_grid(8))
        with np.errstate(over="ignore", invalid="ignore"):
            fitted = fit_methods(span_coordinates(sample), ["tikhonov:cv", "fpca:0.9"])
        cv, fpca = member_fits(fitted, 0)
        assert cv.error == "NumericalError: cross-validation losses are not numbers"
        assert fpca.error is None

    @pytest.mark.parametrize("tail", [0, 40], ids=["all-constant", "constant-then-noise"])
    def test_constant_window_fails_whatever_follows(self, tail):
        # 100 identical curves, away from the whole sample's mean when noisy
        # curves follow: centring leaves rounding residues that must not be fitted
        g = uniform_grid(48)
        noise = np.random.default_rng(3).standard_normal((tail, 48))
        sample = FunctionalSample(np.vstack([np.ones((130, 48)), noise]), g)
        window = span_coordinates(sample).subsample(0, 100)
        labels = ["fpca:0.90", "tikhonov:cv", "tikhonov:0.1"]
        fpca, cv, ridge = member_fits(fit_methods(window, labels, cv_scheme="k-fold-forward"), 0)
        assert fpca.error.startswith("DegenerateSpectrumError:")
        assert cv.error.startswith("DegenerateSpectrumError:")
        assert ridge.error is None and not np.any(ridge.matrix)

    def test_programming_errors_propagate(self, rng):
        coords = span_coordinates(FunctionalSample(rng.standard_normal((60, 8)), uniform_grid(8)))
        with pytest.raises(ValueError):
            fit_methods(coords, ["tikhonov:cv"], cv_scheme="leave-one-out")

    def fit_stack(self, members, labels, scheme="k-fold-forward"):
        """Fit members as one stack and check each row against the member fitted alone.

        Returns each method's rows, one ``MemberFit`` per member.
        """
        r = members[0].shape[1]
        stack = SpanCoordinates(np.stack(members), np.eye(r), unit_weight_grid(r), r)
        outcomes = fit_methods(stack, labels, cv_scheme=scheme)
        assert [len(o.errors) for o in outcomes] == [len(members)] * len(labels)
        rows = [[member_fit(o, i) for i in range(len(members))] for o in outcomes]
        for i, values in enumerate(stack.values):
            member = SpanCoordinates(values, stack.basis, stack.grid, stack.rank)
            alone = member_fits(fit_methods(member, labels, cv_scheme=scheme), 0)
            for per_method, single in zip(rows, alone):
                assert_same_outcome(per_method[i], single)
            # a member's CV columns hold the sweep it gets alone
            for label, per_method in zip(labels, rows):
                if label == "tikhonov:cv" and per_method[i].error is None:
                    lone = cv_select_alpha(member, eigendecompose(weighted_moments(member)), scheme)
                    assert per_method[i].cv == (lone.selected_alpha, lone.cv_curve)
        return rows

    @pytest.mark.parametrize(
        "n, r, scheme",
        [
            (60, 12, "k-fold-forward"),
            (97, 21, "holdout"),
            (150, 5, "k-fold-forward"),
            (40, 8, "holdout"),
        ],
    )
    def test_stacked_healthy_members_fit_in_one_pass(self, n, r, scheme):
        rng = np.random.default_rng(n + r)
        members = [ar_window(rng, n, r, rank) for rank in (r, r, r, r - 1, r - 2, r - 3)]
        outcomes = self.fit_stack(members, STACK_LABELS, scheme)
        by_label = dict(zip(STACK_LABELS, outcomes))
        for label in ("fpca:0.90", "fpca:0.60", "tikhonov:0.1", "tikhonov:cv"):
            assert not any(o.refit_alone or o.error for o in by_label[label])
        # the thresholds pick more than one K across the stack
        assert len({o.tuning for o in by_label["fpca:0.90"]}) > 1

    @pytest.mark.parametrize("overflow", [False, True], ids=["method-steps", "shared-step"])
    def test_stacked_failing_members_leave_neighbours_unchanged(self, overflow):
        rng = np.random.default_rng(12)
        members = [ar_window(rng), np.ones((60, 12)), ar_window(rng, rank=10), ar_window(rng)]
        if overflow:
            members.insert(2, ar_window(rng) * 1e156)
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = self.fit_stack(members, STACK_LABELS)
        fpca, _, k11, ridge, cv = outcomes
        constant = 1
        assert fpca[constant].error.startswith("DegenerateSpectrumError:")
        assert cv[constant].error.startswith("DegenerateSpectrumError:")
        assert ridge[constant].error is None and not np.any(ridge[constant].matrix)
        assert k11[-2].error.startswith("SingularSystemError:")
        healthy = [0, len(members) - 1]
        for per_method in outcomes:
            assert all(per_method[i].error is None for i in healthy)
        if overflow:
            assert all(o.error.startswith("GridError:") for o in (per[2] for per in outcomes))
            # the shared step raised: every member of the stack was refit alone
            assert all(o.refit_alone for per_method in outcomes for o in per_method)
        else:
            # only the steps that raised were rerun member by member
            assert [all(o.refit_alone for o in per) for per in outcomes] == [
                True, True, True, False, True
            ]
            assert not any(o.refit_alone for o in ridge)

    @pytest.mark.parametrize("scheme", ["holdout", "k-fold-forward"])
    @pytest.mark.parametrize("constant", [False, True], ids=["healthy", "all-constant"])
    def test_stack_of_one_matches_the_sample(self, constant, scheme):
        member = np.ones((60, 12)) if constant else ar_window(np.random.default_rng(5))
        outcomes = self.fit_stack([member], STACK_LABELS, scheme)
        errors = [per[0].error is not None for per in outcomes]
        # a constant window fails both thresholds and K=11; a fixed ridge fits it
        assert errors[:4] == [constant, constant, constant, False]
        # only the steps that raised were rerun alone
        assert [per[0].refit_alone for per in outcomes] == errors


def noisy_sample():
    # uneven spacing, so the quadrature weights differ point to point
    rng = np.random.default_rng(8)
    g = make_trapezoid_grid(np.cumsum(rng.uniform(0.5, 1.5, 17)) / 17)
    return FunctionalSample(np.sin(2 * np.pi * g.points) + rng.standard_normal((90, 17)), g)


def regime_ii_sample():
    spec = REGIMES["II"]
    return simulate_far1(draw_regime_operator(spec, 5), spec, 120, 6)


REFERENCE_SAMPLES = {
    "noisy-full-rank-17": (noisy_sample, 17),
    "bspline-rank-10-of-100": (lambda: spline_sample(130), 10),
    "regime-II-rank-40-of-101": (regime_ii_sample, 40),
    "constant-rank-0": (lambda: FunctionalSample(np.full((40, 12), 3.0), uniform_grid(12)), 0),
}
REFERENCE_FITS = [
    ("fpca:0.80", "holdout"),
    ("fpca:0.95", "holdout"),
    ("fpca:K=3", "holdout"),
    ("tikhonov:0.05", "holdout"),
    ("tikhonov:cv", "holdout"),
    ("tikhonov:cv", "k-fold-forward"),
]


class TestDenseReference:
    @pytest.mark.parametrize("name", REFERENCE_SAMPLES)
    def test_fit_method_matches_dense_reference(self, name):
        make_sample, rank = REFERENCE_SAMPLES[name]
        sample = make_sample()
        coords = span_coordinates(sample)
        assert coords.rank == rank
        for label, scheme in REFERENCE_FITS:
            reference = dense_reference.fit(sample.values, sample.grid.weights, label, scheme)
            if reference is None:
                with pytest.raises(FIT_ERRORS):
                    fit_method(coords, label, cv_scheme=scheme)
                continue
            kernel, tuning = reference
            est, _ = fit_method(coords, label, cv_scheme=scheme)
            if label.startswith("fpca"):
                assert est.tuning["k"] == tuning, (label, scheme)
            else:
                assert est.tuning["alpha"] == pytest.approx(tuning, rel=1e-9), (label, scheme)
            gap = np.linalg.norm(est.kernel - kernel)
            assert gap <= 1e-10 * np.linalg.norm(kernel), (label, scheme, gap)


class TestMisfe:
    def test_true_operator_on_noiseless_path(self):
        spec = REGIMES["I"]
        op = draw_regime_operator(spec, seed=3)
        g = spec.make_grid()
        basis = fourier_basis(spec.basis_dim, g)
        rng = np.random.default_rng(4)
        xi = rng.standard_normal(spec.basis_dim)
        states = [xi]
        for _ in range(9):
            states.append(op.coefficients @ states[-1])
        path = FunctionalSample(np.array(states) @ basis, g)
        assert misfe(operator_kernel(op, g), path) <= 1e-10

    def test_zero_operator_gives_mean_squared_level(self, rng):
        g = uniform_grid(7)
        values = rng.standard_normal((6, 7))
        path = FunctionalSample(values, g)
        zero = grid_operator(np.zeros((7, 7)), g)
        expected = np.mean((values[1:] ** 2) @ g.weights)
        assert misfe(zero, path) == pytest.approx(expected, rel=1e-12)

    def test_hand_built_three_curve_path(self):
        g = uniform_grid(2)  # weights (0.5, 0.5)
        kernel = np.array([[1.0, 2.0], [0.0, 1.0]])
        op = grid_operator(kernel, g)
        path = FunctionalSample(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]), g)
        # forecasts by row quadrature: pred(t+1) = K @ (w * x_t)
        p1 = kernel @ (g.weights * path.values[0])  # (0.5, 0)
        p2 = kernel @ (g.weights * path.values[1])  # (1.0, 0.5)
        e1 = ((path.values[1] - p1) ** 2) @ g.weights
        e2 = ((path.values[2] - p2) ** 2) @ g.weights
        assert misfe(op, path) == pytest.approx((e1 + e2) / 2, rel=1e-14)

    def test_additive_over_split(self, rng):
        g = uniform_grid(5)
        values = rng.standard_normal((9, 5))
        path = FunctionalSample(values, g)
        op = grid_operator(rng.standard_normal((5, 5)), g)
        s = 4
        total = misfe(op, path) * 8
        left = misfe(op, FunctionalSample(values[: s + 1], g)) * s
        right = misfe(op, FunctionalSample(values[s:], g)) * (8 - s)
        assert total == pytest.approx(left + right, rel=1e-12)

    def test_energy_outside_a_rank_deficient_span(self, rng):
        # 6 training curves span 5 of the 9 grid directions; the test path's
        # energy outside that span is part of every forecast error
        g = make_trapezoid_grid(np.cumsum(rng.uniform(0.5, 1.5, 9)))
        coords = span_coordinates(FunctionalSample(rng.standard_normal((6, 9)), g))
        assert coords.dim == 5
        op = OperatorEstimate(rng.standard_normal((5, 5)), coords, "tikhonov")
        path = FunctionalSample(rng.standard_normal((30, 9)), g)
        preds = apply_kernel_matrix(op, path.values[:-1])
        expected = np.mean((path.values[1:] - preds) ** 2 @ g.weights)
        encoded = coords.encode(path.values)
        in_span = np.mean(np.sum((encoded[1:] - encoded[:-1] @ op.matrix.T) ** 2, axis=1))
        assert expected - in_span > 0.1 * expected
        assert misfe(op, path) == pytest.approx(expected, rel=1e-12)

    def test_stacked_estimate_rejected(self, rng):
        # the estimate of a stack holds one matrix per member and scores no single path
        g = unit_weight_grid(4)
        stack = SpanCoordinates(rng.standard_normal((2, 30, 4)), np.eye(4), g, 4)
        est, _ = fit_method(stack, "tikhonov:0.1")
        assert est.matrix.shape == (2, 4, 4)
        with pytest.raises(GridError):
            misfe(est, FunctionalSample(rng.standard_normal((10, 4)), g))

    def test_short_path_rejected(self, rng):
        g = uniform_grid(3)
        op = grid_operator(np.zeros((3, 3)), g)
        # a one-curve path has no forecast pair; samples reject it on construction
        with pytest.raises(InsufficientDataError):
            misfe(op, FunctionalSample(np.ones((1, 3)), g))


def synthetic_report(cells, tunings=None):
    """cells: {(regime, n, method): [misfe values]} -> BenchmarkReport.

    A NaN value is a failed fit, and so is each replication a cell does not
    list and each cell not listed. ``tunings`` gives the tuning values of
    some cells, one per misfe value; any other tuning value is 1.0.
    """
    axes = [list(dict.fromkeys(key[k] for key in cells)) for k in range(3)]
    config = BenchmarkConfig(
        regimes=tuple(axes[0]), n_values=tuple(axes[1]), methods=tuple(axes[2]),
        replications=max(len(v) for v in cells.values()),
    )
    shape = (len(axes[0]), len(axes[1]), config.replications, len(axes[2]))
    misfe, tuning = np.full(shape, np.nan), np.full(shape, np.nan)
    errors = np.full(shape, "SingularSystemError: no fit", dtype=object)
    for key, values in cells.items():
        g, i, p = (axis.index(k) for axis, k in zip(axes, key))
        cell_tunings = (tunings or {}).get(key, [1.0] * len(values))
        for r, (value, value_tuning) in enumerate(zip(values, cell_tunings, strict=True)):
            if not np.isnan(value):
                misfe[g, i, r, p], tuning[g, i, r, p], errors[g, i, r, p] = value, value_tuning, None
    return BenchmarkReport(config, misfe, tuning, errors)


class TestTables:
    def test_regret_arithmetic(self):
        report = synthetic_report(
            {("I", 100, "fpca:0.80"): [1.0], ("I", 100, "fpca:0.85"): [1.1]}
        )
        regrets = regret_table(mean_misfe_table(report))
        assert regrets[("I", 100, "fpca:0.80")] == 0.0
        assert regrets[("I", 100, "fpca:0.85")] == pytest.approx(10.0, rel=1e-12)

    def test_identical_means_all_zero(self):
        report = synthetic_report(
            {
                ("I", 100, "fpca:0.80"): [0.7, 0.9],
                ("I", 100, "fpca:0.95"): [0.8, 0.8],
                ("I", 100, "tikhonov:cv"): [0.9, 0.7],
            }
        )
        regrets = regret_table(mean_misfe_table(report))
        assert all(abs(v) <= 1e-12 for v in regrets.values())

    def test_cells_without_results_are_nan(self):
        report = synthetic_report(
            {
                ("I", 100, "fpca:0.80"): [1.0],
                ("I", 200, "fpca:0.80"): [],
            }
        )
        means = mean_misfe_table(report)
        regrets = regret_table(means)
        assert regrets[("I", 100, "fpca:0.80")] == 0.0
        assert np.isnan(regrets[("I", 200, "fpca:0.80")])
        worst = worst_case_table(means)
        assert worst[("fpca:0.80", 100)] == 1.0
        assert np.isnan(worst[("fpca:0.80", 200)])
        mean, _, count = means[("I", 200, "fpca:0.80")]
        assert np.isnan(mean) and count == 0

    def test_worst_case_single_regime(self):
        report = synthetic_report({("II", 100, "fpca:0.80"): [0.4, 0.6]})
        assert worst_case_table(mean_misfe_table(report))[("fpca:0.80", 100)] == pytest.approx(0.5)

    def test_worst_case_max_across_regimes(self):
        report = synthetic_report(
            {
                ("I", 100, "fpca:0.80"): [0.5],
                ("II", 100, "fpca:0.80"): [0.6],
                ("III", 100, "fpca:0.80"): [0.55],
            }
        )
        assert worst_case_table(mean_misfe_table(report))[("fpca:0.80", 100)] == pytest.approx(0.6)

    def test_mean_table_excludes_failures(self):
        key = ("I", 100, "fpca:0.80")
        report = synthetic_report({key: [1.0, float("nan"), 3.0]}, {key: [2.0, None, 2.0]})
        assert record_rows(report)[1].error == "SingularSystemError: no fit"
        mean, stderr, count = mean_misfe_table(report)[key]
        assert mean == pytest.approx(2.0)
        assert count == 2

    def test_tuning_summary_means(self):
        fpca, ridge = ("I", 100, "fpca:0.80"), ("I", 100, "tikhonov:cv")
        report = synthetic_report(
            {fpca: [0.5] * 4, ridge: [0.5, 0.5]}, {fpca: [3.0] * 4, ridge: [0.01, 0.1]}
        )
        assert report.config.replications == 4
        summary = tuning_summary(report)
        assert summary[fpca] == pytest.approx(3.0)
        assert summary[ridge] == pytest.approx(-1.5)


def same_table(table, reference) -> bool:
    """NaN-aware ==: the same keys in the same order, and each value equal or NaN on both sides."""
    values = [np.array(list(t.values()), dtype=float) for t in (table, reference)]
    return list(table) == list(reference) and np.array_equal(*values, equal_nan=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    regimes=st.integers(1, 3),
    sizes=st.integers(1, 3),
    replications=st.integers(1, 5),
    thresholds=st.integers(0, 2),
    failing=st.sampled_from([0.0, 0.3, 0.9]),
)
def test_tables_match_per_record_reference(seed, regimes, sizes, replications, thresholds, failing):
    """Random reports give the tables and the CV slope of a record-by-record computation.

    Every report has one cell in which every replication failed, besides
    ``failing`` replications failed at random; with no threshold method
    no cell has a regret oracle.
    """
    rng = np.random.default_rng(seed)
    methods = ["fpca:0.80", "fpca:0.95"][:thresholds]
    methods += [m for m in ("fpca:K=3", "tikhonov:cv", "tikhonov:0.01") if rng.random() < 0.7]
    methods = [str(m) for m in rng.permutation(methods or ["tikhonov:cv"])]
    config = BenchmarkConfig(
        regimes=("I", "II", "III")[:regimes], n_values=(100, 200, 400)[:sizes],
        methods=tuple(methods), replications=replications,
    )
    shape = (regimes, sizes, replications, len(methods))
    misfe = rng.lognormal(0.0, 1.0, shape)
    ridge = np.array([m.startswith("tikhonov") for m in methods])
    tuning = np.where(ridge, 10.0 ** rng.uniform(-5, 0, shape), rng.integers(1, 41, shape))
    failed = rng.random(shape) < failing
    g, i, p = rng.integers(regimes), rng.integers(sizes), rng.integers(len(methods))
    failed[g, i, :, p] = True  # a cell without a success
    misfe[failed], tuning[failed] = np.nan, np.nan
    errors = np.where(failed, "NumericalError: synthetic", None)
    report = BenchmarkReport(config, misfe, tuning, errors)

    rows = record_rows(report)
    means = mean_misfe_table(report)
    assert same_table(means, benchmark_reference.mean_table(rows, config))
    assert same_table(regret_table(means), benchmark_reference.regret_table(rows, config))
    assert same_table(worst_case_table(means), benchmark_reference.worst_case_table(rows, config))
    assert same_table(tuning_summary(report), benchmark_reference.tuning_table(rows, config))
    try:
        slope = evaluate.rate_slope_from_report(report)
    except ValueError:
        slope = None
    assert slope == benchmark_reference.cv_slope(rows, config)


class TestRateSlope:
    def test_exact_power_law(self):
        ns = [100, 200, 400, 800]
        points = [(n, np.log10(n ** (-0.25))) for n in ns]
        assert rate_slope(points) == pytest.approx(-0.25, abs=1e-10)

    def test_constant(self):
        assert rate_slope([(100, -1.5), (800, -1.5)]) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_design(self):
        with pytest.raises(ValueError):
            rate_slope([(100, -1.0), (100, -2.0)])

    @pytest.mark.parametrize(
        "methods, slope",
        [
            (("tikhonov:cv",), -0.6920683531015344),
            # a fixed strength is not pooled: it halved the slope when it was
            (("tikhonov:cv", "tikhonov:0.01"), -0.6920683531015344),
            # no cross-validated cell, no slope (it read 1.07e-16 when pooled)
            (("fpca:0.9", "tikhonov:0.01"), None),
        ],
    )
    def test_report_slope_pools_only_cross_validated_cells(self, methods, slope):
        config = BenchmarkConfig(
            regimes=("II",), n_values=(100, 400), methods=methods, replications=4, master_seed=5
        )
        report = run_benchmark(config)
        if slope is None:
            with pytest.raises(ValueError):
                evaluate.rate_slope_from_report(report)
        else:
            assert evaluate.rate_slope_from_report(report) == pytest.approx(slope, rel=1e-12)


def batches(config: BenchmarkConfig):
    """``(regime, n, reps)`` of every batch of ``run_benchmark``, in its order."""
    for regime in config.regimes:
        for n in config.n_values:
            for start in range(0, config.replications, BATCH_SIZE):
                yield regime, n, range(start, min(start + BATCH_SIZE, config.replications))


def simulate_batch(config: BenchmarkConfig, regime, n, reps):
    """The training and test states of one batch, simulated as ``run_benchmark`` does."""
    seed, spec = config.master_seed, REGIMES[regime]
    op = draw_regime_operator(spec, evaluate._regime_seed(seed, regime))
    return tuple(
        simulate_states(
            op, spec, length, [evaluate._path_seed(seed, regime, n, r, tag) for r in reps]
        )
        for length, tag in ((n, 0), (config.test_length, 1))
    )


def coefficient_grid(regime):
    dim = REGIMES[regime].basis_dim
    return QuadratureGrid(np.arange(dim), np.ones(dim))


def replication_records(regime, n, reps, train, test, methods):
    """``record_fields`` of a batch with each path fitted alone and scored alone by ``misfe``."""
    grid = coefficient_grid(regime)
    records = []
    for rep, train_states, test_states in zip(reps, train, test):
        coords = span_coordinates(FunctionalSample(train_states, grid))
        test_path = FunctionalSample(test_states, grid)
        for label, row in zip(methods, member_fits(fit_methods(coords, methods), 0)):
            value = np.nan
            if row.matrix is not None:
                value = misfe(OperatorEstimate(row.matrix, coords, label), test_path)
            records.append((regime, n, label, rep, repr(value), repr(row.tuning), row.error))
    return records


def per_replication_records(config: BenchmarkConfig) -> list:
    records = []
    for regime, n, reps in batches(config):
        # a batch's paths are dropped before the next batch is simulated
        train, test = simulate_batch(config, regime, n, reps)
        records += replication_records(regime, n, reps, train, test, config.methods)
        del train, test
    return records


def record_fields(report) -> list:
    """Each row's fields; repr tells the bits of a float, NaN included."""
    return [
        (r.regime, r.n, r.method, r.replication, repr(r.misfe), repr(r.tuning), r.error)
        for r in record_rows(report)
    ]


def batch_report(config: BenchmarkConfig, train, test) -> BenchmarkReport:
    """The report of a config of one batch, fitted and scored by ``_batch_records``."""
    shape = (1, 1, config.replications, len(config.methods))
    misfe, tuning = np.full(shape, np.nan), np.full(shape, np.nan)
    errors = np.full(shape, None, dtype=object)
    regime, log = config.regimes[0], RunLog()
    evaluate._batch_records(
        regime, train, test, coefficient_grid(regime), [parse_method(m) for m in config.methods],
        log, [misfe[0, 0], tuning[0, 0], errors[0, 0]],
    )
    return BenchmarkReport(config, misfe, tuning, errors, log)


class TestRunLog:
    def test_laps_add_up_to_the_time_since_the_log_was_made(self, monkeypatch):
        # binary fractions, so that every difference and sum is exact
        log = RunLog(mark=1.5)
        clock = iter([2.0, 2.25, 4.0])
        monkeypatch.setattr(evaluate.time, "perf_counter", lambda: next(clock))
        log.lap("fit")
        log.lap("score")
        log.lap("fit")
        assert log.stage_seconds == {"fit": 0.5 + 1.75, "score": 0.25}
        assert sum(log.stage_seconds.values()) == 4.0 - 1.5
        assert log.mark == 4.0

    def test_refit_members_lap_every_second_into_the_fit_methods_log(self, monkeypatch):
        # a stub clock that ticks one second per reading: each lap takes one second
        clock = iter(range(1, 100))
        monkeypatch.setattr(evaluate.time, "perf_counter", lambda: float(next(clock)))
        rng = np.random.default_rng(12)
        # the constant member fails the stacked CV step, so both members are refitted alone
        members = [ar_window(rng), np.ones((60, 12))]
        stack = SpanCoordinates(np.stack(members), np.eye(12), unit_weight_grid(12), 12)
        log = RunLog(mark=0.0)
        ridge, cv = fit_methods(stack, ["tikhonov:0.1", "tikhonov:cv"], log=log)
        assert not ridge.refit_alone.any() and cv.refit_alone.all()
        assert cv.errors[0] is None and cv.errors[1].startswith("DegenerateSpectrumError:")
        # the stack: decompose, the fixed ridge, the CV step that raised; each member:
        # decompose and its CV fit, lapped twice by the constant member that fails alone;
        # then the members' rows joined
        assert log.stage_seconds == {
            "decompose": 1 + 2, "fit:tikhonov:0.1": 1, "fit:tikhonov:cv": 1 + 1 + 2 + 1
        }
        assert sum(log.stage_seconds.values()) == log.mark == 9.0

    def test_a_spec_without_a_label_laps_under_its_method_id(self, rng):
        coords = span_coordinates(FunctionalSample(rng.standard_normal((60, 8)), uniform_grid(8)))
        specs = [MethodSpec("fpca", tau=0.9), MethodSpec("fpca", k=2),
                 MethodSpec("tikhonov", alpha=0.1), MethodSpec("tikhonov", cv=True)]
        log = RunLog()
        fit_methods(coords, specs, log=log)
        ids = ["fpca:0.9", "fpca:K=2", "tikhonov:0.1", "tikhonov:cv"]
        assert set(log.stage_seconds) == {"decompose", *(f"fit:{i}" for i in ids)}
        assert [parse_method(i) for i in ids] == [replace(s, label=i) for s, i in zip(specs, ids)]


class TestRunBenchmark:
    def test_stacked_batches_equal_per_replication_fits(self):
        # two batches per cell; at n = 800 each batch is two stacks of 5
        config = BenchmarkConfig(
            regimes=("I", "III"), n_values=(100, 800), replications=BATCH_SIZE + 2,
            master_seed=3,
        )
        assert STACK_CURVES // 800 == 5
        report = run_benchmark(config)
        assert record_fields(report) == per_replication_records(config)
        assert report.log.span_ranks == {40: 2 * 2 * (BATCH_SIZE + 2)}
        assert report.log.single_member_refits == 0
        assert set(report.log.stage_seconds) == {
            "simulate", "decompose", *(f"fit:{label}" for label in config.methods), "score"
        }

    def test_batch_with_an_uncertified_path_fits_each_path_alone(self):
        config = BenchmarkConfig(regimes=("II",), n_values=(100,), replications=BATCH_SIZE)
        regime, n, reps = next(batches(config))
        train, test = simulate_batch(config, regime, n, reps)
        # path 3 loses a dimension, so no path of the batch is stacked
        train[3][:, 7] = train[3][:, 2]
        raw = train.copy()
        report = batch_report(config, train, test)
        assert record_fields(report) == replication_records(
            regime, n, reps, raw, test, config.methods
        )
        assert report.log.span_ranks == {40: BATCH_SIZE - 1, 39: 1}
        # the uncertified batch was fitted from its raw paths, left as they were
        assert np.array_equal(train, raw)

    def test_cv_edge_selections_counted_per_regime(self):
        config = BenchmarkConfig(regimes=("I",), n_values=(100,), replications=BATCH_SIZE)
        regime, n, reps = next(batches(config))
        _, test = simulate_batch(config, regime, n, reps)
        grid = coefficient_grid(regime)
        # white-noise training paths: the strongest ridge, the grid's last candidate, fits best
        train = np.random.default_rng(1).standard_normal((len(reps), n, grid.size))
        cvs = [
            fit_method(span_coordinates(FunctionalSample(path, grid)), "tikhonov:cv")[1]
            for path in train
        ]
        last = sum(cv.selected_alpha == cv.cv_curve[-1][0] for cv in cvs)
        assert last > 0
        report = batch_report(config, train, test)
        assert report.log.cv_edge_selections == {regime: last}

    def test_stacks_hold_at_most_one_stack_of_curves_more_than_single_fits(self):
        # a stack's fit holds temporaries of the stack's size; every larger
        # term of the peak is held by the replication loop too
        config = BenchmarkConfig(
            regimes=("III",), n_values=(800,), replications=2 * BATCH_SIZE, master_seed=5
        )

        def peak(run):
            tracemalloc.start()
            try:
                run(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone, stacked = peak(per_replication_records), peak(run_benchmark)
        stack_bytes = STACK_CURVES * REGIMES["III"].basis_dim * 8
        assert stacked <= alone + stack_bytes, (alone, stacked)

    def test_single_record_smoke(self):
        config = BenchmarkConfig(
            regimes=("I",), n_values=(100,), methods=("fpca:0.90",), replications=1
        )
        report = run_benchmark(config)
        rows = record_rows(report)
        assert len(rows) == 1
        r = rows[0]
        assert r.regime == "I" and r.n == 100 and not r.failed
        assert r.misfe > 0 and r.tuning >= 1

    def test_deterministic_given_master_seed(self):
        config = BenchmarkConfig(
            regimes=("I", "II"), n_values=(100,), methods=("fpca:0.90", "tikhonov:cv"),
            replications=2, master_seed=99,
        )
        a = run_benchmark(config)
        b = run_benchmark(config)
        for ra, rb in zip(record_rows(a), record_rows(b), strict=True):
            assert (ra.regime, ra.n, ra.method, ra.replication) == (
                rb.regime, rb.n, rb.method, rb.replication
            )
            assert ra.misfe == rb.misfe and ra.tuning == rb.tuning

    def test_batch_boundaries_give_each_key_once_in_order(self):
        # 12 replications: every cell runs a full batch and a partial one
        config = BenchmarkConfig(
            regimes=("I", "III"), n_values=(100, 200), methods=("fpca:0.80", "tikhonov:cv"),
            replications=BATCH_SIZE + 2, master_seed=5,
        )
        rows = record_rows(run_benchmark(config))
        keys = [(r.regime, r.n, r.method, r.replication) for r in rows]
        assert keys == [
            (regime, n, method, rep)
            for regime in config.regimes
            for n in config.n_values
            for rep in range(config.replications)
            for method in config.methods
        ]
        assert len(set(keys)) == 2 * 2 * 2 * (BATCH_SIZE + 2)

    @pytest.mark.parametrize("n", [100, 36])
    def test_records_match_dense_grid_refits(self, n):
        # the benchmark fits in Fourier coefficients; the reference refits
        # the 101-point grid curves of simulate_far1 with numpy alone, on
        # the first replication of a batch and the last of the next one;
        # 36 curves span fewer than the 40 coefficients
        config = BenchmarkConfig(
            regimes=("I", "III"), n_values=(n,),
            methods=("fpca:0.90", "fpca:K=3", "tikhonov:cv"),
            replications=BATCH_SIZE + 2, master_seed=7,
        )
        records = {
            (r.regime, r.method, r.replication): r for r in record_rows(run_benchmark(config))
        }
        for regime, code in (("I", 1), ("III", 3)):
            spec = REGIMES[regime]
            op = draw_regime_operator(spec, np.random.SeedSequence([7, code]))
            for rep in (0, BATCH_SIZE + 1):
                train, test = (
                    simulate_far1(op, spec, length, np.random.SeedSequence([7, code, n, rep, tag]))
                    for length, tag in ((n, 0), (config.test_length, 1))
                )
                w = test.grid.weights
                for label in config.methods:
                    record = records[(regime, label, rep)]
                    kernel, tuning = dense_reference.fit(train.values, w, label)
                    preds = (test.values[:-1] * w) @ kernel.T
                    expected = np.mean((test.values[1:] - preds) ** 2 @ w)
                    assert record.misfe == pytest.approx(expected, rel=1e-10)
                    if label.startswith("fpca"):
                        assert record.tuning == tuning
                    else:
                        assert record.tuning == pytest.approx(tuning, rel=1e-9)

    def test_failures_recorded_not_raised(self):
        # K exceeding what n supports fails the fit but not the run
        config = BenchmarkConfig(
            regimes=("I",), n_values=(100,), methods=("fpca:K=99", "fpca:0.90"),
            replications=1,
        )
        report = run_benchmark(config)
        failed = [r for r in record_rows(report) if r.failed]
        assert len(failed) == 1
        assert failed[0].method == "fpca:K=99"
        assert np.isnan(failed[0].misfe)
        ok = [r for r in record_rows(report) if not r.failed]
        assert len(ok) == 1

    def test_k_methods_fail_with_one_class(self):
        # regime I curves are fitted in their 40 Fourier coefficients: K=60
        # (enough curves) and K=500 (beyond any grid) fail alike
        config = BenchmarkConfig(
            regimes=("I",), n_values=(100,), methods=("fpca:K=60", "fpca:K=500", "fpca:K=3"),
            replications=1,
        )
        errors = [r.error for r in record_rows(run_benchmark(config))]
        assert errors[0].startswith("SingularSystemError:")
        assert errors[1].startswith("SingularSystemError:")
        assert errors[2] is None

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(regimes=("IV",))


class TestBiasBound:
    def test_bound_holds_across_betas(self):
        alphas = HOLDOUT_ALPHAS
        for beta in (0.25, 0.5, 1.0, 2.0):
            probe = TheoryProbe.diagonal(beta)
            rows = verify_bias_bound(probe, alphas)
            assert all(bias <= bound * (1 + 1e-12) for _, bias, bound in rows)

    def test_bias_vanishes_with_alpha(self):
        probe = TheoryProbe.diagonal(1.0)
        alphas = np.logspace(0, -6, 13)  # decreasing
        biases = [b for _, b, _ in verify_bias_bound(probe, alphas)]
        assert all(b2 < b1 for b1, b2 in zip(biases, biases[1:]))

    def test_zero_target_zero_bias(self):
        lam = 1.0 / np.arange(1, 11.0) ** 2
        probe = TheoryProbe(beta=1.0, rho=1.0, factor=np.zeros((10, 10)), lambdas=lam)
        rows = verify_bias_bound(probe, [1e-4, 1e-2, 1.0])
        assert all(bias == 0.0 for _, bias, _ in rows)

    def test_saturation_exponent_above_one(self):
        probe = TheoryProbe.diagonal(2.0)
        rows = verify_bias_bound(probe, [0.1])
        _, _, bound = rows[0]
        assert bound == pytest.approx(probe.rho * 0.1)  # min(beta, 1) = 1

    def test_factor_norm_above_rho_rejected(self):
        lam = 1.0 / np.arange(1, 5.0) ** 2
        with pytest.raises(ValueError):
            TheoryProbe(beta=1.0, rho=0.1, factor=np.eye(4), lambdas=lam)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TheoryProbe.diagonal(np.nan),
            lambda: TheoryProbe.diagonal(np.inf),
            lambda: TheoryProbe.diagonal(1.0, rho=np.nan),
            lambda: TheoryProbe.diagonal(1.0, eigen_decay=np.nan),
            lambda: TheoryProbe.diagonal(1.0, eigen_scale=np.inf),
            lambda: TheoryProbe.diagonal(1.0, n_components=0),
            lambda: TheoryProbe(1.0, 1.0, np.full((2, 2), np.nan), np.ones(2)),
            lambda: TheoryProbe(1.0, 1.0, np.zeros((0, 0)), np.zeros(0)),
        ],
        ids=["nan-beta", "inf-beta", "nan-rho", "nan-decay", "inf-scale", "no-components",
             "nan-factor", "empty"],
    )
    def test_non_finite_or_empty_probe_rejected(self, make):
        # a NaN comparison is never a violation, so such a probe could never fail
        with pytest.raises(ValueError):
            make()


class TestVerificationSuite:
    def test_default_suite_passes(self):
        checks = run_verification_suite()
        assert checks and all(c.passed for c in checks)

    def test_corrupted_envelope_fails_named_check(self):
        # eigenvalues scaled above one break the printed envelope for beta > 1
        probes = [TheoryProbe.diagonal(2.0, eigen_scale=4.0)]
        checks = run_verification_suite(probes)
        failed = [c for c in checks if not c.passed]
        assert any(c.name == "bias-bound beta=2" for c in failed)

    def test_empty_probe_list_rejected(self):
        with pytest.raises(ValueError):
            run_verification_suite([])
