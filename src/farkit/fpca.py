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

Every stage takes a stack of samples in shared coordinates along a
leading axis (``SpanCoordinates``), as the rolling backtest fits its
windows and the Monte Carlo benchmark its full-rank replications: the
stack's covariances share one ``eigh`` call, each member keeps its own
K, and the members that picked the same K are fitted in one batched
product. ``eigendecompose`` stays a one-sample function.
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
    "spectra",
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
    """The spectrum of a sample's covariance, carried with the sample's moments.

    Eigenvalues are nonincreasing and clamped >= 0. ``moments`` is the
    pair whose ``c0`` was decomposed; both estimators read its lag-one
    moment ``c1`` through this spectrum. A stack's decomposition carries
    its leading axis on every array.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray  # orthonormal columns in span coordinates
    moments: WeightedMomentPair


def eigendecompose(moments: WeightedMomentPair) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of one sample's covariance matrix.

    Eigenvalues are sorted nonincreasing and clamped at zero; ``checked_eigh``
    holds the checks, which raise NumericalError.
    """
    return SpectralDecomposition(*checked_eigh(moments.c0), moments)


def spectra(moments: WeightedMomentPair) -> SpectralDecomposition:
    """``eigendecompose`` for one sample; a stack's covariances in one ``checked_eigh`` call.

    The decomposition of a stack holds (B, r) eigenvalues and (B, r, r)
    eigenvectors.
    """
    # perfbench's tracer reads the eigenvalues that eigendecompose returns as
    # one sample's dimension, so a stack must not pass through it
    if moments.c0.ndim == 2:
        return eigendecompose(moments)
    return SpectralDecomposition(*checked_eigh(moments.c0), moments)


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


def select_k(eigenvalues, tau: float):
    """Smallest K whose leading eigenvalue share reaches the threshold tau.

    One K per spectrum along the last axis; any zero spectrum raises
    DegenerateSpectrumError.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"variance threshold must lie in (0, 1], got {tau}")
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0 or (lam < 0).any():
        raise ValueError("eigenvalues must be a nonempty nonnegative sequence")
    total = lam.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise DegenerateSpectrumError("all eigenvalues are zero")
    # the shares are nondecreasing: counting those below tau is a left searchsorted
    return (np.cumsum(lam, axis=-1) / total < tau - 1e-12).sum(axis=-1) + 1


def usable_directions(eigenvalues):
    """Number of leading eigenvalues a truncation can keep without a singular score Gram.

    A direction counts when its eigenvalue is positive and within
    GRAM_CONDITION_LIMIT of the leading one; eigenvalues are nonincreasing,
    so the usable directions are a prefix. One count per spectrum along
    the last axis.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    # the leading eigenvalue is the first positive one of a spectrum that has
    # any; a zero eigenvalue gives an infinite or NaN ratio and does not count
    with np.errstate(divide="ignore", invalid="ignore"):
        return (lam[..., :1] / lam <= GRAM_CONDITION_LIMIT).sum(axis=-1)


def fpca_far_fit(
    coords: SpanCoordinates | FunctionalSample,
    tau: float | None = None,
    k: int | None = None,
    *,
    decomposition: SpectralDecomposition | None = None,
) -> OperatorEstimate:
    """Fit the rank-K truncation estimator of the autoregression kernel.

    Exactly one of ``tau`` (cumulative variance threshold) and ``k``
    (explicit truncation level) must be given. The decomposition of the
    sample's moments (``spectra``), which carries those moments, can be
    passed to avoid repeating the dominant O(r^3) work when several
    truncation levels are fitted to one sample.

    The returned estimate reproduces the score-space prediction: scoring a
    curve against the leading eigenfunctions, advancing the scores one step
    with the fitted autoregression matrix, and re-expanding in the
    eigenfunction basis. A grid sample is accepted too and is projected
    with ``span_coordinates`` first. Each member of a stack is fitted at
    its own K, and the one estimate of the stack holds every member's
    matrix and K; a check that fails for any member raises for the whole
    stack.
    """
    if (tau is None) == (k is None):
        raise ValueError("give exactly one of tau and k")
    if isinstance(coords, FunctionalSample):
        coords = span_coordinates(coords)
    if decomposition is None:
        decomposition = spectra(weighted_moments(coords))
    lam = decomposition.eigenvalues
    if tau is not None:
        k = select_k(lam, tau)
    # one K per member of a stack, or the one K of a sample
    ks = np.zeros(lam.shape[:-1], dtype=int) + k
    k_values = set(np.ravel(ks).tolist())
    k = max(k_values)
    m = coords.grid.size
    if min(k_values) < 1 or k > m:
        raise ValueError(f"truncation level {k} outside 1..{m}")
    if coords.n < k + 2:
        raise InsufficientDataError(
            f"need at least K+2 = {k + 2} curves to fit a rank-{k} autoregression"
        )
    if (ks > usable_directions(lam)).any():
        raise SingularSystemError(
            f"score Gram matrix is numerically singular at K={k} "
            f"(condition above {GRAM_CONDITION_LIMIT:.0e})"
        )
    matrices = _truncation_matrices(
        decomposition.moments.c1, lam, decomposition.vectors, ks, k_values
    )
    tuning = {"k": ks.tolist()} if tau is None else {"k": ks.tolist(), "tau": float(tau)}
    return OperatorEstimate(matrices, coords, method="fpca", tuning=tuning)


def _truncation_matrices(c1, lam, vectors, ks: np.ndarray, k_values: set) -> np.ndarray:
    """Rank-K truncation matrices of one sample or a stack, each member at its K in ``ks``.

    ``k_values`` holds the distinct K; the members that share one are
    fitted in one batched product.
    """
    if len(k_values) == 1:
        return _truncation(c1, lam, vectors, *k_values)
    matrices = np.empty_like(c1)
    for k in sorted(k_values):
        members = ks == k
        matrices[members] = _truncation(c1[members], lam[members], vectors[members], k)
    return matrices


def _truncation(c1, lam, vectors, k: int) -> np.ndarray:
    """The rank-k truncation matrix of one sample, or of each member of a stack."""
    q_k = vectors[..., :k]
    q_kt = q_k.swapaxes(-1, -2)
    # prediction-form coefficient matrix: new scores = a_pred @ old scores
    a_pred = (q_kt @ c1 @ q_k) / lam[..., None, :k]
    return q_k @ a_pred @ q_kt
