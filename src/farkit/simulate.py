"""Seeded generation of first-order functional autoregressions.

Paths are simulated in the coordinates of a truncated Fourier basis: the
coefficient recursion runs in J dimensions with diagonal Gaussian
innovations and a fixed burn-in is discarded. ``simulate_states`` returns
the retained coefficient vectors of one path per seed, running the
recursion once for the whole batch and only on the operator's leading
block (the other coordinates are pure innovations); ``simulate_far1``
expands one path onto the evaluation grid. Randomness comes from
``numpy.random.Generator`` seeded with PCG64 (``default_rng``), drawing
normals with ``standard_normal``, so a seed fixes the innovations. The
states are bitwise reproducible only for one batch of seeds on one
machine and BLAS: the recursion runs through BLAS matrix products, whose
rounding depends on the kernel the library picks and on the number of
rows, so a path simulated alone, in another batch or elsewhere agrees
with it to rounding (about 1e-14 relative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NumericalError
from .grid import QuadratureGrid, uniform_grid
from .moments import FunctionalSample, OperatorEstimate, span_coordinates

__all__ = [
    "RegimeSpec",
    "TrueOperator",
    "REGIMES",
    "BURN_IN",
    "fourier_basis",
    "draw_regime_operator",
    "innovation_eigenvalues",
    "simulate_states",
    "simulate_far1",
    "operator_kernel",
]

BURN_IN = 100


@dataclass(frozen=True)
class RegimeSpec:
    """Parameters of one data-generating regime.

    The autoregression coefficient matrix lives on the top-left
    ``block_size`` block of a ``basis_dim``-dimensional Fourier coordinate
    system; ``within_block_decay`` optionally shrinks block entries by
    ``k**-decay`` along the column index. Innovations are independent
    Gaussians with variances proportional to ``k**-innovation_decay``,
    normalized to ``innovation_total_variance``. The drawn block is
    rescaled so its largest singular value equals ``operator_norm_target``,
    which guarantees stationarity outright (the eigenvalue radius can only
    be smaller).
    """

    block_size: int
    within_block_decay: float
    innovation_decay: float
    basis_dim: int = 40
    innovation_total_variance: float = 0.5
    operator_norm_target: float = 0.85
    grid_points: int = 101

    def __post_init__(self):
        if self.basis_dim < 1:
            raise ValueError("basis_dim must be at least 1")
        if not 1 <= self.block_size <= self.basis_dim:
            raise ValueError("block_size must lie in 1..basis_dim")
        if self.within_block_decay < 0:
            raise ValueError("within_block_decay must be nonnegative")
        if self.innovation_decay <= 0:
            raise ValueError("innovation_decay must be positive")
        if not 0 < self.operator_norm_target < 1:
            raise ValueError("operator_norm_target must lie in (0, 1)")
        if self.innovation_total_variance <= 0:
            raise ValueError("innovation_total_variance must be positive")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")

    def make_grid(self) -> QuadratureGrid:
        return uniform_grid(self.grid_points)


# the three benchmark regimes: low-rank / fast decay, medium / moderate,
# wide-spectrum / slow decay
REGIMES = {
    "I": RegimeSpec(block_size=3, within_block_decay=0.0, innovation_decay=2.0),
    "II": RegimeSpec(block_size=10, within_block_decay=0.0, innovation_decay=1.0),
    "III": RegimeSpec(block_size=25, within_block_decay=0.3, innovation_decay=0.6),
}


@dataclass(frozen=True, eq=False)
class TrueOperator:
    """A simulated-regime coefficient matrix with its realized norms."""

    coefficients: np.ndarray  # (J, J), support on the leading block
    spec: RegimeSpec
    operator_norm: float
    spectral_radius: float

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=float).copy()
        j = self.spec.basis_dim
        if coeff.shape != (j, j):
            raise ValueError(f"coefficient matrix must be {j}x{j}")
        b = self.spec.block_size
        if np.any(coeff[b:]) or np.any(coeff[:, b:]):
            raise ValueError(f"coefficients must vanish outside the leading {b}x{b} block")
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)


def fourier_basis(j_count: int, grid: QuadratureGrid) -> np.ndarray:
    """First ``j_count`` Fourier basis functions evaluated on the grid.

    Row 0 is the constant 1; rows 2j-1 and 2j are sqrt(2) cos(2 pi j u)
    and sqrt(2) sin(2 pi j u). Returns a (j_count, M) array.
    """
    if j_count < 1:
        raise ValueError("need at least one basis function")
    u = grid.points
    basis = np.empty((j_count, u.size))
    basis[0] = 1.0
    for i in range(1, j_count):
        freq = (i + 1) // 2
        phase = 2.0 * np.pi * freq * u
        basis[i] = np.sqrt(2.0) * (np.cos(phase) if i % 2 == 1 else np.sin(phase))
    return basis


def draw_regime_operator(spec: RegimeSpec, seed) -> TrueOperator:
    """Draw the regime's coefficient matrix and rescale it to the target norm.

    Block entries are i.i.d. standard normal from ``default_rng(seed)``;
    regimes with ``within_block_decay > 0`` multiply entry (i, k) by
    ``k**-within_block_decay``. The full matrix is rescaled so its largest
    singular value equals ``operator_norm_target``, keeping the eigenvalue
    radius strictly below one as well. Deterministic given (spec, seed).
    """
    rng = np.random.default_rng(seed)
    b = spec.block_size
    block = rng.standard_normal((b, b))
    if spec.within_block_decay > 0:
        block = block * np.arange(1, b + 1, dtype=float) ** (-spec.within_block_decay)
    norm = np.linalg.norm(block, 2)
    if norm == 0:
        raise NumericalError("drawn coefficient block is zero")
    block = block * (spec.operator_norm_target / norm)
    coeff = np.zeros((spec.basis_dim, spec.basis_dim))
    coeff[:b, :b] = block
    realized_norm = float(np.linalg.norm(block, 2))
    realized_radius = float(np.abs(np.linalg.eigvals(block)).max())
    return TrueOperator(coeff, spec, realized_norm, realized_radius)


def innovation_eigenvalues(spec: RegimeSpec) -> np.ndarray:
    """Innovation variances k**-decay, normalized to the configured total."""
    k = np.arange(1, spec.basis_dim + 1, dtype=float)
    raw = k ** (-spec.innovation_decay)
    return raw * (spec.innovation_total_variance / raw.sum())


def simulate_states(op: TrueOperator, spec: RegimeSpec, n: int, seeds) -> np.ndarray:
    """Coefficient states (R, n, J) of one path per seed, after a burn-in.

    Path r draws ``default_rng(seeds[r]).standard_normal((BURN_IN + n, J))``
    scaled by the innovation standard deviations, starts from the zero
    vector and keeps the last n of its ``BURN_IN + n`` states. The draws
    come in two calls on one generator, the burn-in head into a reused
    buffer and the kept rows straight into the returned array; together
    they continue one stream, so they are the numbers of the single draw.

    The recursion runs once for all seeds, on the leading ``block_size``
    coordinates only: the others are the innovations themselves. It steps
    through a time-major (BURN_IN + 1, R, b) buffer whose row 0 carries the
    state between chunks: the burn-in, then the kept rows ``BURN_IN`` at a
    time, copied in and back. Each step is the product ``xi @ block.T``
    into a scratch row, added to the step's innovations in place.
    Deterministic given (op, spec, n, seeds).
    """
    if n < 2:
        raise InsufficientDataError("a simulated sample needs at least 2 curves")
    seeds = list(seeds)
    j, b = spec.basis_dim, spec.block_size
    sigma = np.sqrt(innovation_eigenvalues(spec))
    states = np.empty((len(seeds), n, j))
    chunk = np.empty((BURN_IN + 1, len(seeds), b))
    head = np.empty((BURN_IN, j))  # each path's burn-in draws, reused
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=head)
        head *= sigma
        chunk[1:, r] = head[:, :b]
        rng.standard_normal(out=states[r])
        states[r] *= sigma
    # the transpose of a contiguous copy: np.dot hands it to BLAS as a
    # transposed operand, the gemm that ``xi @ block.T`` runs, at less call
    # overhead than np.matmul (np.dot copies a transposed slice, and that
    # gemm rounds differently)
    block_t = np.ascontiguousarray(op.coefficients[:b, :b]).T
    product = np.empty((len(seeds), b))
    rows = list(chunk)  # views of the chunk's rows, so that a step indexes nothing

    def advance(steps: int) -> None:
        # rows 1..steps of the chunk become states, each from the row before
        for prev, row in zip(rows[:steps], rows[1:steps + 1]):
            np.dot(prev, block_t, out=product)
            np.add(product, row, out=row)
        chunk[0] = chunk[steps]

    chunk[0] = 0.0
    advance(BURN_IN)
    for start in range(0, n, BURN_IN):
        kept = states[:, start:start + BURN_IN, :b]
        steps = kept.shape[1]
        chunk[1:steps + 1] = kept.swapaxes(0, 1)
        advance(steps)
        kept[...] = chunk[1:steps + 1].swapaxes(0, 1)
    return states


def simulate_far1(op: TrueOperator, spec: RegimeSpec, n: int, seed) -> FunctionalSample:
    """Simulate n curves from the regime after discarding a burn-in.

    The one-seed case of ``simulate_states``, expanded in the Fourier
    basis on the regime's uniform grid. Deterministic given
    (op, spec, n, seed).
    """
    grid = spec.make_grid()
    states = simulate_states(op, spec, n, [seed])[0]
    return FunctionalSample(states @ fourier_basis(spec.basis_dim, grid), grid)


def operator_kernel(op: TrueOperator, grid: QuadratureGrid) -> OperatorEstimate:
    """The simulated operator as an estimate on a grid (for error metrics).

    Its coordinates span the Fourier basis functions: together with their
    negatives they form a sample centred at zero, whose centred span is
    theirs. With E the coordinates of the basis functions, the operator's
    matrix is E^T A E, and its grid kernel is B^T A B for the coefficient
    matrix A and the basis values B.
    """
    basis = fourier_basis(op.spec.basis_dim, grid)
    coords = span_coordinates(FunctionalSample(np.vstack([basis, -basis]), grid))
    fourier = coords.encode(basis)
    return OperatorEstimate(fourier.T @ op.coefficients @ fourier, coords, method="true")
