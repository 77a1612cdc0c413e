"""Seeded generator of raw half-hourly concentration files for `farkit rolling`.

Each day's square-root-scale profile is a base diurnal shape plus a weekday
offset plus several smooth modes whose coefficients follow independent AR(1)
recursions with decaying variance, plus per-reading noise. Squaring
gives nonnegative readings. The decaying mode variances spread the variance
of the smoothed curves over several principal components, so the
variance-threshold methods fpca:0.80 ... fpca:0.99 resolve to distinct K;
a level-plus-sine generator resolves all of them to K=1.

Missing readings come in two kinds: outages (a contiguous run of 6-30 slots,
so the day is dropped by the pipeline's missing-data rule) and scattered
single readings (mostly filled by interpolation).
"""

from __future__ import annotations

import datetime as dt

import numpy as np

SLOTS = 48
HEADER = "date," + ",".join(f"h{i:02d}" for i in range(1, SLOTS + 1))
START = dt.date(2001, 10, 1)
MAX_MISSING = 5  # the pipeline's default missing-data rule

# (persistence, standard deviation) of each AR(1) mode, in the order of _modes
_MODE_AR = (
    (0.70, 0.46),
    (0.65, 0.31),
    (0.60, 0.28),
    (0.55, 0.25),
    (0.50, 0.18),
    (0.45, 0.19),
    (0.40, 0.19),
    (0.35, 0.15),
)
_NOISE_SD = 0.4
_WEEKDAY_OFFSET = (0.0, 0.05, 0.1, 0.05, 0.0, -0.3, -0.5)


def _modes(s: np.ndarray) -> np.ndarray:
    r2 = np.sqrt(2.0)
    return np.vstack(
        [
            np.ones_like(s),
            r2 * np.sin(2 * np.pi * s),
            r2 * np.cos(2 * np.pi * s),
            np.sqrt(3.0) * (2 * s - 1),
            r2 * np.sin(4 * np.pi * s),
            r2 * np.cos(4 * np.pi * s),
            r2 * np.sin(6 * np.pi * s),
            r2 * np.cos(6 * np.pi * s),
        ]
    )


def in_season(date: dt.date) -> bool:
    """The pipeline's default season (Oct 1 - Mar 31) minus Dec 28 - Jan 7."""
    md = (date.month, date.day)
    if not (md >= (10, 1) or md <= (3, 31)):
        return False
    return not (md >= (12, 28) or md <= (1, 7))


def generate(seed: int, days: int, *, season_only: bool, missing: bool):
    """Return (dates, readings) with NaN for missing readings.

    ``season_only`` writes only in-season days until ``days`` of them are
    written; otherwise ``days`` consecutive calendar days are written.
    """
    rng = np.random.default_rng([int(seed), 0x5EA5])
    s = (np.arange(SLOTS) + 0.5) / SLOTS
    modes = _modes(s)
    base = 5.0 + 0.8 * np.sin(2 * np.pi * s - 1.0) + 0.3 * np.cos(4 * np.pi * s)
    rho = np.array([p for p, _ in _MODE_AR])
    sd = np.array([q for _, q in _MODE_AR])
    innov = sd * np.sqrt(1.0 - rho**2)
    xi = sd * rng.standard_normal(sd.size)
    dates, rows = [], []
    date = START
    while len(dates) < days:
        xi = rho * xi + innov * rng.standard_normal(sd.size)
        noise = _NOISE_SD * rng.standard_normal(SLOTS)
        keep = in_season(date) if season_only else True
        if keep:
            level = base + _WEEKDAY_OFFSET[date.weekday()] + xi @ modes + noise
            dates.append(date)
            rows.append(np.maximum(level, 0.05) ** 2)
        date += dt.timedelta(days=1)
    readings = np.vstack(rows)
    if missing:
        outage = rng.random(days) < 0.025
        scattered = rng.random((days, SLOTS)) < 0.04
        starts = rng.integers(0, SLOTS, days)
        lengths = rng.integers(6, 31, days)
        for i in np.nonzero(outage)[0]:
            scattered[i, starts[i] : starts[i] + lengths[i]] = True
            # an outage near the day's end wraps to its start, so it always
            # removes at least 6 readings
            spill = starts[i] + lengths[i] - SLOTS
            if spill > 0:
                scattered[i, :spill] = True
        readings[scattered] = np.nan
    return dates, readings


def expected_kept_days(dates, readings) -> int:
    """Days the pipeline keeps: in season and at most MAX_MISSING gaps."""
    missing = np.isnan(readings).sum(axis=1)
    return sum(1 for d, m in zip(dates, missing) if in_season(d) and m <= MAX_MISSING)


def write_csv(path, dates, readings) -> None:
    lines = [HEADER]
    for date, row in zip(dates, readings):
        cells = ["" if np.isnan(v) else f"{v:.6f}" for v in row]
        lines.append(date.isoformat() + "," + ",".join(cells))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def self_check(params: dict, dates, readings, kept: int) -> None:
    """Raise ValueError if a generated file lacks the properties its workload needs."""
    if params["season_only"] and not params["missing"] and kept != params["days"]:
        raise ValueError(f"expected all {params['days']} days kept, got {kept}")
    if params["missing"]:
        share = float(np.isnan(readings).mean())
        season_days = sum(1 for d in dates if in_season(d))
        if not 0.03 <= share <= 0.07:
            raise ValueError(f"missing share {share:.3f} outside [0.03, 0.07]")
        if not 0 < season_days - kept < season_days // 4:
            raise ValueError(f"{season_days - kept} of {season_days} season days dropped")
