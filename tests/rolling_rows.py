"""Row view of a rolling backtest's columns, for tests that compare rows."""

from typing import NamedTuple


class Row(NamedTuple):
    """One evaluated day of one method."""

    method: str
    index: int
    ise: float
    tuning: float
    refit: bool
    error: str | None


def forecast_rows(result, methods) -> list:
    """The rows of a ``RollingResult`` of ``methods``, method-major in their order."""
    assert len(methods) == len(result.ise) == len(result.tuning) == len(result.errors)
    days, refit = result.days.tolist(), result.refit.tolist()
    return [
        Row(label, *day)
        for label, ises, tunings, errors in zip(
            methods, result.ise.tolist(), result.tuning.tolist(), result.errors
        )
        for day in zip(days, ises, tunings, refit, errors, strict=True)
    ]
