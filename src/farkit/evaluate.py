"""Forecast-error metrics, the Monte Carlo benchmark, and theory probes.

The benchmark fits every configured method to shared simulated training
paths and scores one-step forecasts on independent test paths, producing
columns over (regime, n, replication, method) from which regret,
worst-case, and tuning tables are derived. A closed-form diagonal probe
checks the ridge regularization-bias inequality without any linear solves.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    GridError,
    InsufficientDataError,
    NumericalError,
    SingularSystemError,
)
from .fpca import SpectralDecomposition, eigendecompose, fpca_far_fit, spectra, usable_directions
from .grid import QuadratureGrid, uniform_grid
from .moments import (
    FunctionalSample,
    OperatorEstimate,
    SpanCoordinates,
    WeightedMomentPair,
    apply_kernel_matrix,
    centre_curves,
    full_rank_certified,
    span_coordinates,
    weighted_moments,
)
from .simulate import (
    REGIMES,
    draw_regime_operator,
    operator_kernel,
    simulate_far1,
    simulate_states,
)
from .tikhonov import HOLDOUT_ALPHAS, CvResult, _cv_select, cv_select_alpha, tikhonov_fit

__all__ = [
    "MethodSpec",
    "parse_method",
    "FIT_ERRORS",
    "FitOutcome",
    "fit_method",
    "fit_methods",
    "BenchmarkConfig",
    "BenchmarkReport",
    "RunLog",
    "TheoryProbe",
    "misfe",
    "mean_misfe_table",
    "regret_table",
    "worst_case_table",
    "tuning_summary",
    "rate_slope",
    "rate_slope_from_report",
    "run_benchmark",
    "verify_bias_bound",
    "operator_error_slope",
    "CheckResult",
    "run_verification_suite",
]

# seed-stream tags: operator draw is keyed per regime; each replication has
# independent train and test streams
_REGIME_CODES = {"I": 1, "II": 2, "III": 3}
_TRAIN_TAG = 0
_TEST_TAG = 1

# replications of a (regime, n) cell simulated by one recursion; larger
# batches hold more paths in memory at once
BATCH_SIZE = 10

# most training curves of a batch fitted as one stack: a stack's fit holds
# temporaries of its size, and stacking whole batches at n = 800 raised the
# peak resident memory of the default benchmark by about 4.5%
STACK_CURVES = 4000

# estimator failures, recorded as failed fits instead of aborting a benchmark
# or rolling run; GridError covers moments or a kernel that came out non-finite
FIT_ERRORS = (NumericalError, DegenerateSpectrumError, InsufficientDataError, GridError)


# ---------------------------------------------------------------------------
# method specifications


@dataclass(frozen=True)
class MethodSpec:
    """A parsed estimator id: truncation rule or ridge with fixed/CV strength."""

    kind: str  # "fpca" | "tikhonov"
    tau: float | None = None
    k: int | None = None
    alpha: float | None = None
    cv: bool = False
    label: str = ""

    @property
    def id(self) -> str:
        """The method id: ``label``, or else the id that ``parse_method`` reads as this spec."""
        arg = f"K={self.k}" if self.k is not None else "cv" if self.cv else self.tau or self.alpha
        return self.label or f"{self.kind}:{arg}"


def parse_method(label: str) -> MethodSpec:
    """Parse an estimator id.

    Accepted forms: ``fpca:TAU`` (variance threshold in (0, 1]),
    ``fpca:K=INT`` (explicit truncation, K >= 1), ``tikhonov:ALPHA``
    (fixed positive finite strength), and ``tikhonov:cv``
    (cross-validated strength). Anything else raises ValueError.
    """
    kind, _, arg = label.partition(":")
    if not arg:
        raise ValueError(f"malformed method id {label!r}; expected 'kind:argument'")
    if kind == "fpca":
        if arg.startswith("K="):
            k = _parse_number(label, arg[2:], int)
            if k < 1:
                raise ValueError(f"method id {label!r}: truncation level must be at least 1")
            return MethodSpec("fpca", k=k, label=label)
        tau = _parse_number(label, arg, float)
        if not 0 < tau <= 1:
            raise ValueError(f"method id {label!r}: variance threshold must lie in (0, 1]")
        return MethodSpec("fpca", tau=tau, label=label)
    if kind == "tikhonov":
        if arg == "cv":
            return MethodSpec("tikhonov", cv=True, label=label)
        alpha = _parse_number(label, arg, float)
        if not (alpha > 0 and math.isfinite(alpha)):
            raise ValueError(f"method id {label!r}: ridge strength must be positive and finite")
        return MethodSpec("tikhonov", alpha=alpha, label=label)
    raise ValueError(f"unknown method kind {kind!r} in method id {label!r}")


def _parse_number(label: str, text: str, kind):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"method id {label!r}: {text!r} is not a valid {kind.__name__}") from None


def fit_method(
    coords: SpanCoordinates,
    method: MethodSpec | str,
    *,
    moments: WeightedMomentPair | None = None,
    decomposition: SpectralDecomposition | None = None,
    cv_scheme: str = "holdout",
):
    """Fit one estimator id to a sample in span coordinates; returns ``(estimate, cv)``.

    For ``tikhonov:cv`` the strength is selected with ``cv_scheme`` and the
    estimator is refitted on the full sample; ``cv`` is that selection's
    ``CvResult`` (None for every other method). A stack is fitted in one
    pass into one estimate and one selection, each with one row per
    member; a failure of any member raises for the whole stack.
    """
    if isinstance(method, str):
        method = parse_method(method)
    cv = None
    if moments is None:
        moments = weighted_moments(coords)
    if decomposition is None:
        decomposition = spectra(moments)
    if method.kind == "fpca":
        if method.k is not None:
            # one failure class for every K beyond the covariance's usable
            # directions, whatever the grid size and the sample length
            usable = usable_directions(decomposition.eigenvalues)
            if np.any(method.k > usable):
                raise SingularSystemError(
                    f"K={method.k} exceeds the {usable} usable covariance directions"
                )
        est = fpca_far_fit(
            coords, tau=method.tau, k=method.k, moments=moments, decomposition=decomposition
        )
    elif not method.cv:
        est = tikhonov_fit(coords, method.alpha, moments=moments, decomposition=decomposition)
    else:
        # perfbench's tracer reads the result of cv_select_alpha as one
        # CvResult, so a stack runs the same sweep under its private name
        select = _cv_select if coords.stacked else cv_select_alpha
        cv = select(coords, decomposition, scheme=cv_scheme)
        est = tikhonov_fit(coords, cv.selected_alpha, moments=moments, decomposition=decomposition)
    return est, cv


@dataclass(frozen=True, eq=False)
class FitOutcome:
    """One method fitted to the B members of a stack, as columns; a sample is a stack of one.

    A member whose fit failed has NaN in ``matrices`` and ``tuning`` and
    its error text in ``errors``; ``refit_alone`` marks the members whose
    stacked step raised, so that they were refitted on their own.
    """

    matrices: np.ndarray  # (B, r, r) operator matrices in span coordinates
    tuning: np.ndarray  # (B,) resolved K, or ridge strength
    errors: np.ndarray  # (B,) object: error texts, None where the fit succeeded
    refit_alone: np.ndarray  # (B,) bool
    # the selection of a tikhonov:cv fit, NaN in the rows of members without one
    cv: CvResult | None = None

    @property
    def cv_at_grid_edge(self) -> np.ndarray:
        """(B,): whether each member's selection picked the first or last candidate of its grid."""
        cv = self.cv
        if cv is None:
            return np.zeros(len(self.errors), dtype=bool)
        return (cv.selected_alpha == cv.alphas[:, 0]) | (cv.selected_alpha == cv.alphas[:, -1])


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def fit_methods(coords: SpanCoordinates, methods, *, cv_scheme: str = "holdout", log=None) -> list:
    """Fit every method to one sample or stack in span coordinates from one shared decomposition.

    Returns one FitOutcome per method, in order, with one row per member
    of a stack, or the one row of a sample. Estimator failures
    (``FIT_ERRORS``) become rows with the error text, including a failed
    shared decomposition, which fails every method; any other exception
    propagates. It laps ``decompose``, then ``fit:<method id>`` per method,
    into ``log``, a fresh ``RunLog`` when None.

    A stack of samples (``SpanCoordinates.windows``) is fitted through the
    same steps, each step once for the whole stack. When a stacked step
    raises a ``FIT_ERRORS`` class, each member is refitted alone through
    ``fit_methods``, into the same log, for the methods that step covered
    (``refit_alone``): each member's row then holds the outcome it would
    record alone, and a failing member leaves its neighbours' fits unchanged.
    """
    log = RunLog() if log is None else log
    methods = [parse_method(m) if isinstance(m, str) else m for m in methods]
    try:
        moments = weighted_moments(coords)
        decomposition = spectra(moments)
    except FIT_ERRORS as exc:
        return _failed_step(coords, methods, exc, cv_scheme, log)
    finally:
        log.lap("decompose")
    # a sample's results get the leading axis of a stack of one
    as_rows = np.asarray if coords.stacked else (lambda x: np.asarray(x)[None])
    outcomes = []
    for method in methods:
        try:
            est, cv = fit_method(
                coords, method, moments=moments, decomposition=decomposition, cv_scheme=cv_scheme
            )
        except FIT_ERRORS as exc:
            log.lap(f"fit:{method.id}")
            outcomes += _failed_step(coords, [method], exc, cv_scheme, log)
        else:
            tuning = as_rows(est.tuning["k" if method.kind == "fpca" else "alpha"]).astype(float)
            if cv is not None:
                cv = CvResult(*map(as_rows, (cv.alphas, cv.losses, cv.selected_alpha)), cv.scheme)
            size = len(tuning)
            outcomes.append(FitOutcome(as_rows(est.matrix), tuning, np.full(size, None),
                                       np.zeros(size, bool), cv))
        log.lap(f"fit:{method.id}")
    return outcomes


def _failed_step(coords: SpanCoordinates, methods, exc: Exception, cv_scheme, log: RunLog):
    """The outcomes of ``methods`` after their step raised ``exc``.

    A sample records the error. Each member of a stack is refitted alone,
    lapping into ``log``, and its outcome is written into its row.
    """
    if not coords.stacked:
        shape, error = (1, coords.dim, coords.dim), np.full(1, _error_text(exc), dtype=object)
        return [FitOutcome(np.full(shape, np.nan), np.full(1, np.nan), error, np.zeros(1, bool))
                for _ in methods]
    alone = [fit_methods(replace(coords, values=v), methods, cv_scheme=cv_scheme, log=log)
             for v in coords.values]
    return [_member_rows(rows) for rows in zip(*alone)]


def _member_rows(rows) -> FitOutcome:
    """One method's one-row outcomes of a stack's members, refitted alone, as one column set."""
    cv = next((row.cv for row in rows if row.cv is not None), None)
    if cv is not None:
        # a member without a selection gets a row of NaN
        nan = np.full_like(cv.alphas, np.nan)
        cvs = [row.cv or CvResult(nan, nan, nan[:, 0], cv.scheme) for row in rows]
        cv = CvResult(*(np.concatenate(column) for column in zip(
            *((c.alphas, c.losses, c.selected_alpha) for c in cvs))), cv.scheme)
    return FitOutcome(
        np.concatenate([row.matrices for row in rows]),
        np.concatenate([row.tuning for row in rows]),
        np.concatenate([row.errors for row in rows]),
        np.ones(len(rows), dtype=bool),
        cv,
    )


# ---------------------------------------------------------------------------
# forecast-error metrics


def misfe(op: OperatorEstimate, test: FunctionalSample) -> float:
    """Mean integrated squared one-step forecast error along a path.

    Every curve after the first is predicted from its predecessor by the
    estimate; squared errors are integrated with the grid's quadrature
    weights and averaged over the T-1 forecast pairs. The error is
    computed in the estimate's span coordinates, plus the energy of the
    targets outside the span, which no forecast reaches.
    """
    coords = op.coordinates
    if test.grid.size != coords.grid.size or coords.stacked:
        raise GridError("test path must be on the grid of an estimate of one sample")
    return float(_path_misfe(op.matrix[None], *_encode_path(coords, test.values[None]))[0])


def _encode_path(coords: SpanCoordinates, values: np.ndarray):
    """Span coordinates (B, T, r) of B paths (B, T, M) and each path's out-of-span energy (B,).

    The energy ``sum_w x^2 - ||enc x||^2`` of a path's curves 2..T is 0
    when the span fills the grid.
    """
    encoded = coords.encode(values)
    outside = np.zeros(len(values))
    if coords.dim < coords.grid.size:
        inside = (encoded[:, 1:] ** 2).reshape(len(values), -1)
        outside = np.sum(values[:, 1:] ** 2 @ coords.grid.weights, axis=-1) - inside.sum(axis=-1)
    return encoded, outside


def _path_misfe(matrices: np.ndarray, encoded: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """``misfe`` (B,) of B r x r operator matrices, each on its path encoded by ``_encode_path``.

    Numpy's stacked matmul calls BLAS once per path, with the shapes of
    that path scored alone, and each path's squares are summed as one
    contiguous row, so every error has the bits of its path scored alone.
    A matrix of NaN (a failed fit) gives NaN.
    """
    product = encoded[:, :-1] @ matrices.swapaxes(-1, -2)
    squares = np.square(np.subtract(encoded[:, 1:], product, out=product), out=product)
    return (squares.reshape(len(squares), -1).sum(axis=-1) + outside) / (encoded.shape[1] - 1)


# ---------------------------------------------------------------------------
# benchmark columns and derived tables


@dataclass(frozen=True)
class BenchmarkConfig:
    """Grid of the Monte Carlo benchmark plus its master seed."""

    regimes: tuple = ("I", "II", "III")
    n_values: tuple = (100, 200, 400, 800)
    methods: tuple = (
        "fpca:0.80",
        "fpca:0.85",
        "fpca:0.90",
        "fpca:0.95",
        "fpca:0.99",
        "tikhonov:cv",
    )
    replications: int = 50
    master_seed: int = 14
    test_length: int = 200

    def __post_init__(self):
        object.__setattr__(self, "regimes", tuple(self.regimes))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "methods", tuple(self.methods))
        for name in ("regimes", "n_values", "methods"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate entries in {name}: {list(values)}")
        for regime in self.regimes:
            if regime not in REGIMES:
                raise ValueError(f"unknown regime id {regime!r}")
        if min(self.n_values) < 2:
            raise ValueError("training paths need at least 2 curves")
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.test_length < 2:
            raise ValueError("test paths need at least 2 curves")
        for label in self.methods:
            parse_method(label)

    def to_dict(self) -> dict:
        return {
            "regimes": list(self.regimes),
            "n_values": list(self.n_values),
            "methods": list(self.methods),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "test_length": self.test_length,
        }

    @classmethod
    def from_dict(cls, data) -> "BenchmarkConfig":
        """Config from a parsed JSON object; a top-level ``schema_version`` is ignored.

        Anything but an object of known keys whose values have the JSON
        types of the defaults raises ValueError. The retired ``threads``
        key is accepted only as the integer 1 and dropped: the benchmark
        runs sequentially.
        """
        if not isinstance(data, dict):
            raise ValueError("benchmark config must be a JSON object")
        data = {key: value for key, value in data.items() if key != "schema_version"}
        threads = data.pop("threads", 1)
        if type(threads) is not int or threads != 1:
            raise ValueError(
                f"benchmark config 'threads': {threads!r} is not 1; runs are sequential"
            )
        defaults = cls().to_dict()
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValueError(f"unknown benchmark config keys: {sorted(unknown)}")
        for key, value in data.items():
            default = defaults[key]
            # exact types: JSON true/false parse to bool, an int subclass
            if isinstance(default, list):
                ok = isinstance(value, list) and all(type(v) is type(default[0]) for v in value)
            else:
                ok = type(value) is type(default)
            if not ok:
                raise ValueError(
                    f"benchmark config {key!r}: {value!r} is not typed like {default!r}"
                )
        return cls(**data)


@dataclass
class RunLog:
    """What a benchmark or a backtest reports besides its columns: stage seconds and fit counts.

    ``lap(stage)`` adds the seconds since the previous lap, or since the
    log was made, to ``stage``, so the stages add up to the run's wall
    time. ``count`` adds one fitted group: its members by the rank of
    their span (``span_ranks``), those refitted alone after their stack's
    step raised (``single_member_refits``), and under ``key`` its
    ``tikhonov:cv`` fits whose strength is the first or last candidate of
    their grid (``cv_edge_selections``).
    """

    stage_seconds: Counter = field(default_factory=Counter)
    span_ranks: Counter = field(default_factory=Counter)
    single_member_refits: int = 0
    cv_edge_selections: Counter = field(default_factory=Counter)
    mark: float = field(default_factory=time.perf_counter)

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.stage_seconds[stage] += now - self.mark
        self.mark = now

    def count(self, key, rank: int, fitted) -> None:
        """Count one group: ``fitted`` holds each method's ``FitOutcome`` for members of span ``rank``."""
        self.span_ranks[rank] += len(fitted[0].errors)
        # a member counts once, however many of its methods were refit alone
        self.single_member_refits += int(np.any([o.refit_alone for o in fitted], axis=0).sum())
        self.cv_edge_selections[key] += sum(int(o.cv_at_grid_edge.sum()) for o in fitted)


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    """One benchmark run as columns over (regime, n, replication, method), plus its config.

    The axes follow the config's order, which is the row order of
    ``records.csv``. ``misfe`` and ``tuning`` (resolved K, or selected
    alpha) are NaN where a fit failed, and ``errors`` holds that fit's
    error text, None where it succeeded.
    """

    config: BenchmarkConfig
    misfe: np.ndarray  # (regimes, n_values, replications, methods)
    tuning: np.ndarray  # shaped like misfe
    errors: np.ndarray  # object array shaped like misfe
    log: RunLog = field(default_factory=RunLog)  # stages and fit counts; CV edges by regime

    @property
    def failed(self) -> np.ndarray:
        """Shaped like ``errors``: whether the fit failed."""
        return np.not_equal(self.errors, None)


def _regime_seed(master_seed: int, regime: str) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(master_seed), _REGIME_CODES[regime]])


def _path_seed(master_seed, regime, n, replication, tag) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        [int(master_seed), _REGIME_CODES[regime], int(n), int(replication), int(tag)]
    )


def run_benchmark(config: BenchmarkConfig) -> BenchmarkReport:
    """Run the full (regime x n x method x replication) benchmark.

    Each replication simulates one training path and one independent test
    path (both after burn-in, from the regime's single operator draw),
    fits every method to the same training path, and records the test-path
    forecast error and the resolved tuning value. Fit failures are
    recorded on the cell and never abort the run. The report is a pure
    function of the config (timings aside). Besides its columns its
    ``log`` counts the training paths, and per regime the CV grid-edge
    selections, and laps the stages ``simulate``, ``decompose``,
    ``fit:<method id>`` and ``score``.

    Paths stay in the simulator's J Fourier coefficients, on a unit-weight
    grid of J points: the basis is orthonormal under the regime grid's
    quadrature, so fits and forecast errors there equal those of the
    expanded curves up to rounding. A cell's replications are simulated
    ``BATCH_SIZE`` at a time by one recursion and fitted by
    ``_batch_records``: as stacks of at most ``STACK_CURVES`` training
    curves when every path of the batch is certified to have full rank,
    otherwise each path alone. Either way each path's results have the
    bits of the path fitted alone.
    """
    log = RunLog()
    methods = [parse_method(label) for label in config.methods]
    operators = {
        regime: draw_regime_operator(REGIMES[regime], _regime_seed(config.master_seed, regime))
        for regime in config.regimes
    }
    shape = (len(config.regimes), len(config.n_values), config.replications, len(methods))
    misfe, tuning = np.full(shape, np.nan), np.full(shape, np.nan)
    errors = np.full(shape, None, dtype=object)
    for g, regime in enumerate(config.regimes):
        spec = REGIMES[regime]
        grid = QuadratureGrid(np.arange(spec.basis_dim), np.ones(spec.basis_dim))
        for i, n in enumerate(config.n_values):
            for start in range(0, config.replications, BATCH_SIZE):
                reps = range(start, min(start + BATCH_SIZE, config.replications))
                train, test = (
                    simulate_states(
                        operators[regime],
                        spec,
                        length,
                        [_path_seed(config.master_seed, regime, n, rep, tag) for rep in reps],
                    )
                    for length, tag in ((n, _TRAIN_TAG), (config.test_length, _TEST_TAG))
                )
                log.lap("simulate")
                rows = (g, i, slice(reps.start, reps.stop))
                columns = (misfe[rows], tuning[rows], errors[rows])
                _batch_records(regime, train, test, grid, methods, log, columns)
                # drop this batch's paths before the next batch is simulated
                del train, test
    return BenchmarkReport(config, misfe, tuning, errors, log)


def _batch_records(regime, train, test, grid, methods, log: RunLog, columns) -> None:
    """Fit and score one batch of training paths ``train`` (R, n, J) and test paths ``test``.

    ``columns`` are the batch's (R, methods) rows of the report's
    ``misfe``, ``tuning`` and ``errors``, written in place.

    When ``full_rank_certified`` certifies every training path, ``train``
    is centred in place and fitted as stacks of at most ``STACK_CURVES``
    curves in the identity basis, each stack in one ``fit_methods`` call;
    otherwise each path is fitted alone in its ``span_coordinates``. A
    stack member's fit has the bits of the path alone, and so have its
    results. Each group of paths is scored as soon as it is fitted: its
    test paths are encoded once in their training paths' coordinates, and
    each method scores them in one stacked product, with the bits
    ``misfe`` gives each path alone. The fits lap into ``log``, which
    counts them under ``regime``; certifying and centring lap as ``decompose``.
    """
    size = max(1, STACK_CURVES // train.shape[1])
    stacks = [slice(i, i + size) for i in range(0, len(train), size)]
    # the stacks are certified on copies, so that a batch that fails keeps its raw paths
    if all(full_rank_certified(centre_curves(train[s], grid)).all() for s in stacks):
        centre_curves(train, grid, out=train)
        m = grid.size
        groups = [(SpanCoordinates(train[s], np.eye(m), grid, m), s) for s in stacks]
    else:
        groups = [(span_coordinates(FunctionalSample(train[i], grid)), slice(i, i + 1))
                  for i in range(len(train))]
    misfe, tuning, errors = columns
    for coords, paths in groups:
        fitted = fit_methods(coords, methods, log=log)
        log.count(regime, coords.rank, fitted)
        encoded = _encode_path(coords, test[paths])
        for p, outcome in enumerate(fitted):
            misfe[paths, p] = _path_misfe(outcome.matrices, *encoded)
            tuning[paths, p], errors[paths, p] = outcome.tuning, outcome.errors
        log.lap("score")
        # drop this group's fits before the next group is fitted
        del fitted, encoded


def _successes(report: BenchmarkReport, column: np.ndarray) -> dict:
    """{(regime, n, method): a cell's successful replications in ``column``, in order}."""
    config, ok = report.config, ~report.failed
    return {
        (regime, n, label): column[g, i, :, p][ok[g, i, :, p]]
        for (g, regime), (i, n), (p, label) in itertools.product(
            *map(enumerate, (config.regimes, config.n_values, config.methods))
        )
    }


def mean_misfe_table(report: BenchmarkReport) -> dict:
    """Per-cell mean forecast error with its Monte Carlo standard error.

    Returns {(regime, n, method): (mean, stderr, count)} for every cell of
    the config, in its order, over successful replications only; failed
    fits reduce the count and are never imputed, and a cell without any
    success gets (NaN, NaN, 0).
    """
    table = {}
    for key, values in _successes(report, report.misfe).items():
        if values.size == 0:
            table[key] = (float("nan"), float("nan"), 0)
        else:
            stderr = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
            table[key] = (float(values.mean()), stderr, int(values.size))
    return table


def regret_table(means: dict) -> dict:
    """Percent excess mean forecast error over the best truncation rule per cell.

    ``means`` is a ``mean_misfe_table``, and the regrets follow its
    order. The oracle in each (regime, n) cell is the smallest mean error
    among the variance-threshold methods with at least one successful
    replication, so the best of them has regret exactly 0 and a ridge
    method may land below 0. The regret is NaN for a method without
    successes and for every method of a cell without an oracle.
    """
    # a variance threshold is the only method with a tau
    labels = {label for _, _, label in means}
    thresholds = {label for label in labels if parse_method(label).tau is not None}
    candidates = {}  # (regime, n): its thresholds' means with a success, in config order
    for (regime, n, label), (mean, _, count) in means.items():
        if label in thresholds and count > 0:
            candidates.setdefault((regime, n), []).append(mean)
    regrets = {}
    for (regime, n, label), (mean, _, _) in means.items():
        oracle = min(candidates.get((regime, n), [float("nan")]))
        regrets[(regime, n, label)] = 100.0 * (mean - oracle) / oracle
    return regrets


def worst_case_table(means: dict) -> dict:
    """Worst per-regime mean forecast error for each (method, n), in config order.

    ``means`` is a ``mean_misfe_table``. NaN when any regime of that
    (method, n) has no successful replication.
    """
    regimes, n_values, labels = (list(dict.fromkeys(key[a] for key in means)) for a in range(3))
    return {
        (label, n): float(np.max([means[(regime, n, label)][0] for regime in regimes]))
        for label in labels
        for n in n_values
    }


def tuning_summary(report: BenchmarkReport) -> dict:
    """Per-cell mean tuning value, in config order: resolved K, or log10 of the selected alpha."""
    table = {}
    for key, values in _successes(report, report.tuning).items():
        spec = parse_method(key[2])
        if values.size == 0:
            table[key] = float("nan")
        elif spec.kind == "tikhonov":
            table[key] = float(np.mean(np.log10(values)))
        else:
            table[key] = float(values.mean())
    return table


def rate_slope(points) -> float:
    """Least-squares slope of mean log10(alpha) against log10(n).

    ``points`` is a sequence of (n, mean_log10_alpha) pairs pooled across
    regimes; at least two distinct n values are required.
    """
    points = list(points)
    ns = np.array([float(p[0]) for p in points])
    values = np.array([float(p[1]) for p in points])
    if np.unique(ns).size < 2:
        raise ValueError("rate slope needs at least 2 distinct sample sizes")
    slope, _ = np.polyfit(np.log10(ns), values, 1)
    return float(slope)


def rate_slope_from_report(report: BenchmarkReport) -> float:
    """Pooled tuning-rate slope of every cross-validated ridge cell."""
    summary = tuning_summary(report)
    points = []
    for (regime, n, label), value in summary.items():
        if parse_method(label).cv and np.isfinite(value):
            points.append((n, value))
    return rate_slope(points)


# ---------------------------------------------------------------------------
# closed-form verification of the regularization-bias inequality


@dataclass(frozen=True, eq=False)
class TheoryProbe:
    """A finite diagonal model with known smoothness for bias-bound checks.

    The covariance has eigenvalues ``lambdas``; the target operator is
    ``factor @ diag(lambdas**beta)`` with ``||factor||_F <= rho``, so the
    regularization bias is available entrywise with no linear solves.
    """

    beta: float
    rho: float
    factor: np.ndarray  # coefficient matrix F
    lambdas: np.ndarray

    def __post_init__(self):
        # NaN fails every comparison, so a non-finite probe could never fail its check
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("smoothness exponent beta must be positive and finite")
        if not math.isfinite(self.rho):
            raise ValueError("the bound rho must be finite")
        factor = np.asarray(self.factor, dtype=float)
        lambdas = np.asarray(self.lambdas, dtype=float)
        if lambdas.ndim != 1 or lambdas.size == 0:
            raise ValueError("a probe needs at least one component")
        if not np.all((lambdas > 0) & np.isfinite(lambdas)):
            raise ValueError("covariance eigenvalues must be positive and finite")
        if factor.shape != (lambdas.size, lambdas.size):
            raise ValueError("factor must be square and match the eigenvalues")
        if not np.all(np.isfinite(factor)):
            raise ValueError("factor entries must be finite")
        norm = float(np.linalg.norm(factor))
        if norm > self.rho * (1 + 1e-12):
            raise ValueError(f"||F|| = {norm:.6g} exceeds the bound rho = {self.rho:.6g}")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "lambdas", lambdas)

    @property
    def target(self) -> np.ndarray:
        """The operator F C0^beta the probe regularizes toward."""
        return self.factor * (self.lambdas**self.beta)[None, :]

    @classmethod
    def diagonal(
        cls,
        beta: float,
        n_components: int = 60,
        eigen_decay: float = 2.0,
        rho: float = 1.0,
        eigen_scale: float = 1.0,
    ) -> "TheoryProbe":
        """Diagonal probe with eigen_scale * k**-eigen_decay eigenvalues, ||F||_F = rho.

        The envelope rho * alpha**min(beta, 1) is valid whenever the leading
        eigenvalue is at most 1; an ``eigen_scale`` above 1 with ``beta > 1``
        deliberately breaks it (useful as a negative control).
        """
        if n_components < 1:
            raise ValueError("a probe needs at least one component")
        k = np.arange(1, n_components + 1, dtype=float)
        lambdas = eigen_scale * k ** (-eigen_decay)
        profile = 1.0 / k
        factor = np.diag(profile * (rho / np.linalg.norm(profile)))
        return cls(beta=beta, rho=rho, factor=factor, lambdas=lambdas)


def verify_bias_bound(probe: TheoryProbe, alphas) -> list:
    """Regularization bias against its theoretical envelope, per alpha.

    For each alpha, the smoothed operator is the target with its columns
    shrunk by lambda/(lambda + alpha); the bias is the Frobenius distance
    to the target and the envelope is rho * alpha**min(beta, 1). Returns
    [(alpha, bias, bound), ...] in input order.
    """
    psi = probe.target
    exponent = min(probe.beta, 1.0)
    rows = []
    for alpha in np.asarray(alphas, dtype=float):
        if alpha <= 0:
            raise ValueError("bias probe requires positive alpha")
        shrink = alpha / (probe.lambdas + alpha)
        bias = float(np.linalg.norm(psi * shrink[None, :]))
        rows.append((float(alpha), bias, float(probe.rho * alpha**exponent)))
    return rows


def operator_error_slope(
    regime: str = "II",
    n_values=(100, 200, 400),
    replications: int = 3,
    master_seed: int = 20260222,
):
    """Soft diagnostic: log-log slope of ridge estimation error against n.

    Fits the cross-validated ridge estimator to fresh paths and measures
    the weighted Frobenius distance between the fitted and the true kernel.
    Returned as (slope, points) for reporting only; the regimes are not
    built around a single smoothness exponent, so no band is asserted.
    """
    spec = REGIMES[regime]
    op = draw_regime_operator(spec, _regime_seed(master_seed, regime))
    points = []
    for n in n_values:
        errors = []
        for rep in range(replications):
            train = simulate_far1(
                op, spec, n, _path_seed(master_seed, regime, n, rep, _TRAIN_TAG)
            )
            est, _ = fit_method(span_coordinates(train), "tikhonov:cv")
            truth = operator_kernel(op, train.grid)
            w = train.grid.weights
            scale = np.sqrt(np.outer(w, w))
            errors.append(float(np.linalg.norm((est.kernel - truth.kernel) * scale)))
        points.append((n, float(np.log10(np.mean(errors)))))
    slope = rate_slope(points)
    return slope, points


# ---------------------------------------------------------------------------
# verification suite (drives the verify command)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_verification_suite(probes=None, seed: int = 1234) -> list:
    """Named numerical self-checks: bias bounds plus estimator equivalences.

    ``probes`` defaults to the diagonal family with smoothness exponents
    {0.25, 0.5, 1, 2}; an explicitly empty list is a configuration error.
    Returns a list of CheckResult; the run never raises on a failed check.
    """
    if probes is None:
        probes = [TheoryProbe.diagonal(beta) for beta in (0.25, 0.5, 1.0, 2.0)]
    probes = list(probes)
    if not probes:
        raise ValueError("verification needs at least one bias probe")
    checks = []
    alphas = HOLDOUT_ALPHAS

    for probe in probes:
        rows = verify_bias_bound(probe, alphas)
        violations = [(a, b, bd) for a, b, bd in rows if b > bd * (1 + 1e-12)]
        worst = max((b / bd for _, b, bd in rows), default=0.0)
        checks.append(
            CheckResult(
                f"bias-bound beta={probe.beta:g}",
                not violations,
                f"max bias/bound ratio {worst:.4f} over {len(rows)} alphas",
            )
        )

    rng = np.random.default_rng(seed)
    spectral_ok, spectral_worst = True, 0.0
    for _ in range(5):
        n, m = int(rng.integers(40, 90)), int(rng.integers(8, 24))
        coords = span_coordinates(FunctionalSample(rng.standard_normal((n, m)), uniform_grid(m)))
        mom = weighted_moments(coords)
        dec = eigendecompose(mom)
        for alpha in alphas[::6]:
            est = tikhonov_fit(coords, alpha, moments=mom, decomposition=dec)
            dense = np.linalg.solve((mom.c0 + alpha * np.eye(coords.dim)).T, mom.c1.T).T
            rel = float(np.linalg.norm(est.matrix - dense)) / max(
                float(np.linalg.norm(dense)), 1e-300
            )
            spectral_worst = max(spectral_worst, rel)
            spectral_ok = spectral_ok and rel <= 1e-10
    checks.append(
        CheckResult(
            "ridge spectral-vs-dense",
            spectral_ok,
            f"worst relative error {spectral_worst:.3e}",
        )
    )

    limit_ok, limit_worst = True, 0.0
    for _ in range(5):
        m = int(rng.integers(6, 12))
        n = 4 * m
        sample = FunctionalSample(rng.standard_normal((n, m)), uniform_grid(m))
        coords = span_coordinates(sample)
        mom = weighted_moments(coords)
        dec = eigendecompose(mom)
        full = fpca_far_fit(coords, k=m, moments=mom, decomposition=dec)
        ridge = tikhonov_fit(
            coords, 1e-12 * float(dec.eigenvalues[0]), moments=mom, decomposition=dec
        )
        x = sample.values[-1:]
        a = apply_kernel_matrix(full, x)
        b = apply_kernel_matrix(ridge, x)
        rel = float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)
        limit_worst = max(limit_worst, rel)
        limit_ok = limit_ok and rel <= 1e-6
    checks.append(
        CheckResult(
            "full-rank truncation matches vanishing ridge",
            limit_ok,
            f"worst relative prediction gap {limit_worst:.3e}",
        )
    )
    return checks
