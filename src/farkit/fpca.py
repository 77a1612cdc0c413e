"""Principal-component truncation estimator for first-order curve autoregressions.

The fit has three stages: eigendecompose the sample covariance in span
coordinates, keep the leading K directions (picked directly or through a
cumulative variance threshold), and estimate the score-space
autoregression whose coefficients are rebuilt into a rank-K operator.

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
from .moments import (
    FunctionalSample,
    OperatorEstimate,
    SpanCoordinates,
    WeightedMomentPair,
    span_coordinates,
    weighted_moments,
)

__all__ = [
    "SpectralDecomposition",
    "eigendecompose",
    "checked_eigh",
    "select_k",
    "usable_directions",
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
    """Eigenvalues (nonincreasing, clamped >= 0) and eigenvectors of the covariance."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # orthonormal columns in span coordinates


def eigendecompose(moments: WeightedMomentPair) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of the covariance matrix.

    Eigenvalues are sorted nonincreasing and clamped at zero; ``checked_eigh``
    holds the checks, which raise NumericalError.
    """
    return SpectralDecomposition(*checked_eigh(moments.c0))


def checked_eigh(c0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of one covariance or of a ``(..., r, r)`` stack.

    The whole stack is decomposed in one ``np.linalg.eigh`` call, which
    gives each matrix the same bits as decomposing it alone. Eigenvalues
    are sorted nonincreasing along the last axis, with the eigenvectors in
    the matching columns. Every matrix must be symmetric to 1e-8 of its
    largest entry. Small negative eigenvalues (above -1e-10 relative to
    their matrix's leading eigenvalue) are rounding artefacts and are
    clamped to zero; anything more negative raises NumericalError, as
    does a failed decomposition.
    """
    c0t = np.swapaxes(c0, -1, -2)
    scale = np.abs(c0).max(axis=(-2, -1))
    if np.any((scale > 0) & (np.abs(c0 - c0t).max(axis=(-2, -1)) > 1e-8 * scale)):
        raise NumericalError("covariance matrix is not symmetric")
    try:
        lam, vectors = np.linalg.eigh((c0 + c0t) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    lam = lam[..., ::-1]
    vectors = vectors[..., ::-1]
    floor = -NEGATIVE_EIGENVALUE_TOL * np.maximum(lam[..., :1], 0.0)
    if np.any(lam < floor):
        raise NumericalError(
            f"covariance eigenvalues below the PSD tolerance (min {lam.min():.3e})"
        )
    return np.maximum(lam, 0.0), vectors


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


def fpca_far_fit(
    coords: SpanCoordinates | FunctionalSample,
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
    O(r^3) work when several truncation levels are fitted to one sample.

    The returned estimate reproduces the score-space prediction: scoring a
    curve against the leading eigenfunctions, advancing the scores one step
    with the fitted autoregression matrix, and re-expanding in the
    eigenfunction basis. A grid sample is accepted too and is projected
    with ``span_coordinates`` first.
    """
    if (tau is None) == (k is None):
        raise ValueError("give exactly one of tau and k")
    if isinstance(coords, FunctionalSample):
        coords = span_coordinates(coords)
    if moments is None:
        moments = weighted_moments(coords)
    if decomposition is None:
        decomposition = eigendecompose(moments)
    lam = decomposition.eigenvalues
    if tau is not None:
        k = select_k(lam, tau)
    k = int(k)
    m = coords.grid.size
    if not 1 <= k <= m:
        raise ValueError(f"truncation level {k} outside 1..{m}")
    if coords.n < k + 2:
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
    a_pred = (q_k.T @ moments.c1 @ q_k) / lam[None, :k]
    tuning = {"k": k}
    if tau is not None:
        tuning["tau"] = float(tau)
    return OperatorEstimate(q_k @ a_pred @ q_k.T, coords, method="fpca", tuning=tuning)
