"""farkit: functional AR(1) estimation on gridded curves.

Estimates the autoregression operator of a first-order functional time
series two ways: principal-component truncation with variance-threshold
selection, and continuous ridge regularization with cross-validated
strength. Ships a seeded Monte Carlo benchmark across three simulated
regimes, a preprocessing pipeline for half-hourly concentration data, and
a rolling one-step forecast backtest, all behind a small CLI.
"""

from .errors import (
    DegenerateSpectrumError,
    GridError,
    InsufficientDataError,
    NumericalError,
    SingularSystemError,
)
from .evaluate import (
    BenchmarkConfig,
    BenchmarkReport,
    TheoryProbe,
    fit_method,
    mean_misfe_table,
    misfe,
    parse_method,
    rate_slope,
    regret_table,
    run_benchmark,
    tuning_summary,
    verify_bias_bound,
    worst_case_table,
)
from .fpca import SpectralDecomposition, eigendecompose, fpca_far_fit, select_k
from .grid import QuadratureGrid, make_trapezoid_grid, uniform_grid
from .moments import (
    FunctionalSample,
    OperatorEstimate,
    SpanCoordinates,
    WeightedMomentPair,
    apply_kernel_matrix,
    span_coordinates,
    weighted_moments,
)
from .preprocess import (
    DayTable,
    PipelineConfig,
    RollingConfig,
    filter_and_interpolate,
    load_halfhourly_csv,
    preprocess_curves,
    rolling_forecast,
)
from .simulate import (
    REGIMES,
    RegimeSpec,
    TrueOperator,
    draw_regime_operator,
    fourier_basis,
    innovation_eigenvalues,
    simulate_far1,
    simulate_states,
)
from .tikhonov import HOLDOUT_ALPHAS, CvResult, cv_select_alpha, tikhonov_fit

__version__ = "0.1.0"
