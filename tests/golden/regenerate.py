"""Rewrite the golden files that ``tests/test_golden.py`` compares with fresh outputs.

    python tests/golden/regenerate.py

It writes the seeded inputs under ``inputs/``, then runs every command of
``commands`` through ``farkit.cli.main`` from this directory and writes
its outputs under ``outputs/<name>/``. Run it only in a change that moves
outputs on purpose: the diff of the rewritten files is the record of what
moved.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
OUTPUTS = HERE / "outputs"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))

from farkit.cli import main as farkit  # noqa: E402

# two regimes, one cell below the 40 coefficients (n = 30) and one above
BENCHMARK_CONFIG = {"regimes": ["I", "III"], "n_values": [30, 100], "replications": 2,
                    "test_length": 50}

FITS = {
    "fpca-0.9": ("fpca:0.9", "holdout"),
    "fpca-K4": ("fpca:K=4", "holdout"),
    "tikhonov-0.01": ("tikhonov:0.01", "holdout"),
    "tikhonov-cv-holdout": ("tikhonov:cv", "holdout"),
    "tikhonov-cv-k-fold-forward": ("tikhonov:cv", "k-fold-forward"),
}


def commands() -> dict:
    """{output directory: farkit arguments but ``--out``}, with inputs relative to this directory."""
    runs = {"benchmark": ["benchmark", "--config", "inputs/benchmark.json", "--seed", "14"]}
    for policy in ("exclude-cross-gap", "contiguous"):
        runs[f"rolling-{policy}"] = ["rolling", "--raw", "inputs/raw.csv", "--window", "40",
                                     "--refit", "5", "--gap-policy", policy]
    runs["verify"] = ["verify"]
    for name, (method, scheme) in FITS.items():
        runs[f"fit-{name}"] = ["fit", "--input", "inputs/sample.csv", "--method", method,
                               "--cv-scheme", scheme]
    return runs


def run_commands(out: Path) -> None:
    """Run every command into ``out/<name>``; the working directory must be this directory."""
    for name, argv in commands().items():
        with contextlib.redirect_stdout(io.StringIO()):
            status = farkit([*argv, "--out", str(out / name)])
        if status != 0:
            raise RuntimeError(f"farkit {' '.join(argv)} exited {status}")


def write_raw(path: Path) -> None:
    """150 in-season days of half-hourly readings, with scattered missing readings and one 3-day gap.

    Each day's square-root profile is a diurnal shape plus five Fourier
    modes whose coefficients follow AR(1) recursions of decaying variance,
    plus noise. The season skips Dec 28 - Jan 7, as the pipeline's
    default does, and Nov 10-12 are left out. At most 5 readings of a day
    are missing, so the pipeline keeps every day.
    """
    rng = np.random.default_rng(150)
    s = (np.arange(48) + 0.5) / 48
    waves = (f(2 * np.pi * k * s) for k in (1, 2) for f in (np.sin, np.cos))
    modes = np.vstack([np.ones(48), *waves])
    rho, sd = np.array([0.7, 0.6, 0.5, 0.4, 0.3]), np.array([0.5, 0.35, 0.3, 0.2, 0.15])
    base = 5.0 + 0.8 * np.sin(2 * np.pi * s - 1.0)
    xi = sd * rng.standard_normal(5)
    lines = ["date," + ",".join(f"h{i:02d}" for i in range(1, 49))]
    date, gap = dt.date(2021, 10, 1), (dt.date(2021, 11, 10), dt.date(2021, 11, 12))
    while len(lines) <= 150:
        md = (date.month, date.day)
        if not (md >= (12, 28) or md <= (1, 7) or gap[0] <= date <= gap[1]):
            xi = rho * xi + sd * np.sqrt(1 - rho**2) * rng.standard_normal(5)
            level = base + xi @ modes + 0.3 * rng.standard_normal(48)
            readings = np.maximum(level, 0.1) ** 2
            cells = [f"{v:.1f}" for v in readings]
            if rng.random() < 0.3:
                for slot in rng.choice(48, size=rng.integers(1, 6), replace=False):
                    cells[slot] = ""
            lines.append(date.isoformat() + "," + ",".join(cells))
        date += dt.timedelta(days=1)
    path.write_text("\n".join(lines) + "\n")


def write_sample(path: Path) -> None:
    """60 curves on 12 points from a FAR(1) recursion with smooth innovations."""
    rng = np.random.default_rng(60)
    u = np.linspace(0, 1, 12)
    smooth = np.linalg.cholesky(np.exp(-np.abs(u[:, None] - u[None, :]) / 0.3))
    kernel = np.exp(-((u[:, None] - u[None, :]) ** 2) / 0.1)
    operator = 0.6 * kernel / np.linalg.norm(kernel, 2)
    x = smooth @ rng.standard_normal(12)
    rows = []
    for _ in range(60):
        x = operator @ x + smooth @ rng.standard_normal(12)
        rows.append(",".join(f"{v:.6f}" for v in x))
    path.write_text("\n".join(rows) + "\n")


def main() -> int:
    os.chdir(HERE)
    INPUTS.mkdir(exist_ok=True)
    write_raw(INPUTS / "raw.csv")
    write_sample(INPUTS / "sample.csv")
    (INPUTS / "benchmark.json").write_text(json.dumps(BENCHMARK_CONFIG, indent=2) + "\n")
    shutil.rmtree(OUTPUTS, ignore_errors=True)
    run_commands(OUTPUTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
