"""Row view of ``fit_methods``' columns, for tests that compare one member's fit."""

from typing import NamedTuple

import numpy as np


class CvRow(NamedTuple):
    """One member's strength selection."""

    selected_alpha: float
    cv_curve: tuple  # ((alpha, validation loss), ...) in grid order


class MemberFit(NamedTuple):
    """Member b's row of one method's ``FitOutcome``."""

    matrix: np.ndarray | None  # None where the fit failed
    tuning: float  # NaN where the fit failed
    error: str | None
    refit_alone: bool
    cv: CvRow | None  # the selection of a tikhonov:cv fit that succeeded


def member_fit(outcome, b: int) -> MemberFit:
    """Member b's row of ``outcome``; checks that every column holds one row per member."""
    size = len(outcome.errors)
    assert outcome.errors.dtype == object and outcome.errors.shape == (size,)
    assert outcome.matrices.shape[0] == len(outcome.tuning) == len(outcome.refit_alone) == size
    cv, error = outcome.cv, outcome.errors[b]
    if cv is not None:
        assert cv.alphas.shape == cv.losses.shape and cv.alphas.shape[0] == size
        assert cv.selected_alpha.shape == (size,)
    tuning, refit_alone = outcome.tuning[b].item(), bool(outcome.refit_alone[b])
    if error is not None:
        # a failed row holds NaN in every numeric column
        assert np.isnan(outcome.matrices[b]).all() and np.isnan(tuning)
        assert cv is None or np.isnan(cv.losses[b]).all()
        return MemberFit(None, tuning, error, refit_alone, None)
    if cv is not None:
        curve = tuple(zip(cv.alphas[b].tolist(), cv.losses[b].tolist()))
        cv = CvRow(cv.selected_alpha[b].item(), curve)
    return MemberFit(outcome.matrices[b], tuning, None, refit_alone, cv)


def member_fits(outcomes, b: int) -> list:
    """Member b's row of each method's outcome, in method order."""
    return [member_fit(outcome, b) for outcome in outcomes]
