"""Row view of a benchmark report's columns, for tests that compare records."""

from typing import NamedTuple

import numpy as np


class Row(NamedTuple):
    """One (regime, n, replication, method) entry, a row of ``records.csv``."""

    regime: str
    n: int
    method: str
    replication: int
    misfe: float
    tuning: float
    error: str | None

    @property
    def failed(self) -> bool:
        return self.error is not None


def record_rows(report) -> list:
    """A ``BenchmarkReport``'s rows in ``records.csv`` order: regime, n, replication, method."""
    config = report.config
    shape = (len(config.regimes), len(config.n_values), config.replications, len(config.methods))
    assert report.misfe.shape == report.tuning.shape == report.errors.shape == shape
    # every fit lap names a configured method
    assert {s for s in report.log.stage_seconds if s.startswith("fit:")} <= {
        f"fit:{label}" for label in config.methods
    }
    rows = [
        Row(config.regimes[g], config.n_values[i], config.methods[p], r,
            report.misfe[g, i, r, p].item(), report.tuning[g, i, r, p].item(),
            report.errors[g, i, r, p])
        for g, i, r, p in np.ndindex(shape)
    ]
    for row in rows:
        # a failed row holds NaN in every numeric column
        assert row.error is None or (np.isnan(row.misfe) and np.isnan(row.tuning))
    return rows
