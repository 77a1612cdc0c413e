"""Principal-component truncation estimator for first-order curve autoregressions.

The fit has three stages: eigendecompose the weighted sample covariance,
keep the leading K directions (picked directly or through a cumulative
variance threshold), and estimate the score-space autoregression whose
coefficients are rebuilt into a rank-K kernel on the grid.

The score autoregression is estimated from the spectral projections of the
sample moment matrices: the score Gram matrix is the projected covariance
(divisor n) and the lag-one score cross-moment keeps its own divisor (n-1).
With every component retained this makes the fitted operator coincide with
the unregularized moment solve C1 C0^{-1}, so it agrees with the ridge
estimator in the limit of vanishing regularization; a pairwise-summed
least-squares Gram would differ from that limit at order 1/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InsufficientDataError,
    NumericalError,
    SingularSystemError,
)
from .grid import QuadratureGrid
from .moments import (
    FunctionalSample,
    OperatorEstimate,
    WeightedMomentPair,
    unweight_kernel,
    weighted_moments,
)

__all__ = [
    "SpectralDecomposition",
    "eigendecompose",
    "select_k",
    "usable_directions",
    "component_scores",
    "fpca_far_fit",
    "GRAM_CONDITION_LIMIT",
]

# relative eigenvalue floor below which the score Gram counts as singular
GRAM_CONDITION_LIMIT = 1e12

# eigenvalues more negative than -NEGATIVE_EIGENVALUE_TOL * lambda_1 indicate
# a genuinely non-PSD input rather than rounding noise
NEGATIVE_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (nonincreasing, clamped >= 0) and eigenvectors of C0-tilde."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # orthonormal columns in the weighted representation
    grid: QuadratureGrid

    @property
    def eigenfunctions(self) -> np.ndarray:
        """Grid values of the L2-orthonormal eigenfunctions, one per column."""
        return self.vectors / self.grid.sqrt_weights[:, None]


def eigendecompose(moments: WeightedMomentPair) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of the weighted covariance matrix.

    Eigenvalues are sorted nonincreasing. Small negative values (above
    -1e-10 relative to the leading eigenvalue) are rounding artefacts and
    are clamped to zero; anything more negative raises NumericalError.
    """
    c0 = moments.c0_tilde
    scale = np.abs(c0).max()
    if scale > 0 and np.abs(c0 - c0.T).max() > 1e-8 * scale:
        raise NumericalError("weighted covariance matrix is not symmetric")
    try:
        lam, vectors = np.linalg.eigh((c0 + c0.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    lam = lam[::-1]
    vectors = vectors[:, ::-1]
    lam_max = max(float(lam[0]), 0.0)
    floor = -NEGATIVE_EIGENVALUE_TOL * lam_max
    if np.any(lam < floor):
        raise NumericalError(
            f"covariance eigenvalues below the PSD tolerance (min {lam.min():.3e})"
        )
    lam = np.maximum(lam, 0.0)
    return SpectralDecomposition(lam, vectors, moments.grid)


def select_k(eigenvalues, tau: float) -> int:
    """Smallest K whose leading eigenvalue share reaches the threshold tau."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"variance threshold must lie in (0, 1], got {tau}")
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0 or np.any(lam < 0):
        raise ValueError("eigenvalues must be a nonempty nonnegative sequence")
    total = lam.sum()
    if total <= 0:
        raise DegenerateSpectrumError("all eigenvalues are zero")
    shares = np.cumsum(lam) / total
    return int(np.searchsorted(shares, tau - 1e-12) + 1)


def usable_directions(eigenvalues) -> int:
    """Number of leading eigenvalues a truncation can keep without a singular score Gram.

    A direction counts when its eigenvalue is positive and within
    GRAM_CONDITION_LIMIT of the leading one; eigenvalues are nonincreasing,
    so the usable directions are a prefix.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    positive = lam[lam > 0]
    if positive.size == 0:
        return 0
    return int(np.count_nonzero(positive[0] / positive <= GRAM_CONDITION_LIMIT))


def component_scores(
    sample: FunctionalSample,
    decomposition: SpectralDecomposition,
    k: int,
    mean=None,
) -> np.ndarray:
    """Quadrature inner products of centered curves with the leading k eigenfunctions.

    Returns an (n, k) array; row t holds the scores of curve t.
    """
    if mean is None:
        mean = sample.values.mean(axis=0)
    else:
        mean = np.asarray(mean, dtype=float)
    sw = sample.grid.sqrt_weights
    return ((sample.values - mean) * sw) @ decomposition.vectors[:, :k]


def fpca_far_fit(
    sample: FunctionalSample,
    tau: float | None = None,
    k: int | None = None,
    *,
    moments: WeightedMomentPair | None = None,
    decomposition: SpectralDecomposition | None = None,
) -> OperatorEstimate:
    """Fit the rank-K truncation estimator of the autoregression kernel.

    Exactly one of ``tau`` (cumulative variance threshold) and ``k``
    (explicit truncation level) must be given. Precomputed moments and/or
    the eigendecomposition can be passed to avoid repeating the dominant
    O(M^3) work when several truncation levels are fitted to one sample.

    The returned kernel applied by quadrature reproduces the score-space
    prediction: scoring a curve against the leading eigenfunctions,
    advancing the scores one step with the fitted autoregression matrix,
    and re-expanding in the eigenfunction basis.
    """
    if (tau is None) == (k is None):
        raise ValueError("give exactly one of tau and k")
    if moments is None:
        moments = weighted_moments(sample)
    if decomposition is None:
        decomposition = eigendecompose(moments)
    lam = decomposition.eigenvalues
    if tau is not None:
        k = select_k(lam, tau)
    k = int(k)
    m = sample.grid.size
    if not 1 <= k <= m:
        raise ValueError(f"truncation level {k} outside 1..{m}")
    if sample.n < k + 2:
        raise InsufficientDataError(
            f"need at least K+2 = {k + 2} curves to fit a rank-{k} autoregression"
        )
    if k > usable_directions(lam):
        raise SingularSystemError(
            f"score Gram matrix is numerically singular at K={k} "
            f"(condition above {GRAM_CONDITION_LIMIT:.0e})"
        )
    q_k = decomposition.vectors[:, :k]
    # prediction-form coefficient matrix: new scores = a_pred @ old scores
    a_pred = (q_k.T @ moments.c1_tilde @ q_k) / lam[None, :k]
    psi_tilde = q_k @ a_pred @ q_k.T
    tuning = {"k": k}
    if tau is not None:
        tuning["tau"] = float(tau)
    return unweight_kernel(psi_tilde, sample.grid, method="fpca", tuning=tuning)
