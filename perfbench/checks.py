"""Output-correctness checks for the benchmark's runs.

Three kinds of check, each returning a list of problems (empty = correct):

* ``reference_problems``: a canary run at a fixed seed against the values
  stored in ``reference.json`` (made at the commit named there), with a
  tolerance rather than byte equality, because results move in the last
  digits when the BLAS thread count or the summation order changes.
* ``benchmark_problems`` / ``rolling_problems``: a measured run at the run's
  own seed. Every derived table is recomputed from the primary CSV, and a
  seeded sample of fits is recomputed by the dense reference estimators
  below, which share no code with farkit's estimators.
* ``verify_problems``: every ``farkit verify`` check passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

VALUE_RTOL = 1e-6  # misfe / ise against the reference estimators and the reference file
ALPHA_RTOL = 1e-9  # selected ridge strengths are grid values
TABLE_RTOL = 1e-10  # derived tables against their recomputation from the primary CSV
TIE_RTOL = 1e-9  # CV losses or variance shares this close count as a tie
MAX_LISTED = 8


def read_rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _tuning_close(method: str, a: float, b: float) -> bool:
    if method.startswith("fpca"):
        return a == b or (math.isnan(a) and math.isnan(b))
    return _close(a, b, ALPHA_RTOL)


class Problems(list):
    """A problem list that keeps the first few messages of each kind."""

    def __init__(self):
        super().__init__()
        self._kinds = {}

    def add(self, kind: str, message: str) -> None:
        count = self._kinds.get(kind, 0) + 1
        self._kinds[kind] = count
        if count <= MAX_LISTED:
            self.append(f"{kind}: {message}")
        elif count == MAX_LISTED + 1:
            self.append(f"{kind}: further mismatches not listed")


# ---------------------------------------------------------------------------
# dense reference estimators (numpy only; no farkit code)


def trapezoid_weights(m: int) -> np.ndarray:
    h = 1.0 / (m - 1)
    w = np.full(m, h)
    w[0] = w[-1] = h / 2
    return w


def _weighted_moments(values: np.ndarray, sw: np.ndarray):
    n = values.shape[0]
    mean = values.mean(axis=0)
    z = (values - mean) * sw
    return z.T @ z / n, z[1:].T @ z[:-1] / (n - 1), mean


def _spectrum(c0: np.ndarray):
    lam, q = np.linalg.eigh((c0 + c0.T) / 2)
    return np.maximum(lam[::-1], 0.0), q[:, ::-1]


def _ridge(c0, c1, alpha):
    """C1 (C0 + alpha I)^-1 by a dense solve, in the weighted representation."""
    return np.linalg.solve((c0 + alpha * np.eye(c0.shape[0])).T, c1.T).T


def _cv_losses(values, sw, alphas, splits):
    """Mean one-step validation loss per alpha, one dense fit per alpha and split."""
    losses = np.zeros(len(alphas))
    for train_end, targets in splits:
        c0, c1, mean = _weighted_moments(values[:train_end], sw)
        lags = (values[targets - 1] - mean) * sw
        z = (values[targets] - mean) * sw
        for i, alpha in enumerate(alphas):
            psi = _ridge(c0, c1, alpha)
            losses[i] += np.sum((z - lags @ psi.T) ** 2) / len(targets)
    return losses / len(splits)


def _selected_alpha_ok(alphas, losses, alpha) -> bool:
    """The program's alpha has the smallest loss, up to a near-tie."""
    idx = int(np.argmin(np.abs(alphas - alpha)))
    if not _close(alphas[idx], alpha, ALPHA_RTOL):
        return False
    best = losses.min()
    return losses[idx] <= best + TIE_RTOL * abs(best)


def _k_ok(lam, tau, k) -> bool:
    """K is the smallest with variance share >= tau, up to a near-tie."""
    shares = np.cumsum(lam) / lam.sum()
    if not 1 <= k <= lam.size:
        return False
    reaches = shares[k - 1] >= tau - TIE_RTOL
    first = k == 1 or shares[k - 2] < tau + TIE_RTOL
    return bool(reaches and first)


def reference_kernel(values, method: str, tuning: float, cv: str):
    """Kernel (grid-point form) of ``method`` fitted to ``values``.

    The program's tuning value is checked for optimality here and then
    used, so a near-tie cannot make the comparison flaky. Returns
    (kernel, problem or None).
    """
    m = values.shape[1]
    sw = np.sqrt(trapezoid_weights(m))
    c0, c1, _ = _weighted_moments(values, sw)
    lam, q = _spectrum(c0)
    kind, _, arg = method.partition(":")
    if kind == "fpca":
        k = int(tuning)
        if not _k_ok(lam, float(arg), k):
            return None, f"{method} resolved K={k}, not the threshold's K"
        qk = q[:, :k]
        psi = (qk @ qk.T) @ c1 @ (qk / lam[:k]) @ qk.T
    else:
        n = values.shape[0]
        if cv == "holdout":
            alphas = np.logspace(-5.0, 0.0, 25)
            n_v = max(n // 5, 20)
            splits = [(n - n_v, np.arange(n - n_v, n))]
        else:
            alphas = lam[0] * np.logspace(-4.0, 1.0, 30)
            folds = np.array_split(np.arange(n), 5)
            splits = [(int(f[0]), f) for f in folds[1:]]
        losses = _cv_losses(values, sw, alphas, splits)
        if not _selected_alpha_ok(alphas, losses, tuning):
            return None, f"{method} selected alpha={tuning!r}, not the CV minimiser"
        psi = _ridge(c0, c1, tuning)
    return psi / np.outer(sw, sw), None


# ---------------------------------------------------------------------------
# farkit benchmark


def _simulated_paths(info: dict, regime: str, n: int, rep: int):
    """Training and test paths of one benchmark cell.

    The seed streams are the documented ones: the operator is drawn from
    SeedSequence([master, regime code]) and each path from
    SeedSequence([master, regime code, n, replication, 0 train | 1 test]).
    """
    from farkit.simulate import REGIMES, draw_regime_operator, simulate_far1

    master = info["master_seed"]
    code = {"I": 1, "II": 2, "III": 3}[regime]
    spec = REGIMES[regime]
    op = draw_regime_operator(spec, np.random.SeedSequence([master, code]))
    train, test = (
        simulate_far1(op, spec, length, np.random.SeedSequence([master, code, n, rep, tag]))
        for length, tag in ((n, 0), (info["config"]["test_length"], 1))
    )
    return train.values, test.values


def _misfe(kernel, test):
    w = trapezoid_weights(test.shape[1])
    preds = (test[:-1] * w) @ kernel.T
    return float(np.mean((test[1:] - preds) ** 2 @ w))


def _cell_tables(rows):
    cells = {}
    for r in rows:
        cells.setdefault((r["regime"], int(r["n"]), r["method"]), []).append(r)
    means, tunings = {}, {}
    for key, cell in cells.items():
        ok = [r for r in cell if not r["error"]]
        values = np.array([float(r["misfe"]) for r in ok])
        means[key] = (float(values.mean()) if ok else math.nan, len(ok))
        tune = np.array([float(r["tuning"]) for r in ok])
        if not ok:
            tunings[key] = math.nan
        elif key[2].startswith("tikhonov"):
            tunings[key] = float(np.mean(np.log10(tune)))
        else:
            tunings[key] = float(tune.mean())
    return means, tunings


def benchmark_problems(out: Path, info: dict, oracle_cells: int, rng) -> list:
    """Check one `farkit benchmark` output directory."""
    problems = Problems()
    config = info["config"]
    rows = read_rows(out / "records.csv")
    expected = {
        (g, n, m, rep)
        for g in config["regimes"]
        for n in config["n_values"]
        for m in config["methods"]
        for rep in range(config["replications"])
    }
    got = {(r["regime"], int(r["n"]), r["method"], int(r["replication"])) for r in rows}
    if got != expected or len(rows) != len(expected):
        problems.add("records", f"{len(rows)} rows, expected one per cell ({len(expected)})")
        return problems
    for r in rows:
        if bool(r["error"]) != math.isnan(float(r["misfe"])):
            problems.add("records", f"error text and misfe disagree in {r}")

    means, tunings = _cell_tables(rows)
    tau_methods = [m for m in config["methods"] if m.startswith("fpca:") and "K=" not in m]
    for r in read_rows(out / "regret.csv"):
        key = (r["regime"], int(r["n"]), r["method"])
        mean, count = means[key]
        oracle = min(means[(key[0], key[1], m)][0] for m in tau_methods)
        regret = 100.0 * (mean - oracle) / oracle
        if not (_close(float(r["mean_misfe"]), mean, TABLE_RTOL) and int(r["count"]) == count):
            problems.add("regret.csv", f"{key} mean/count differ from records.csv")
        if not _close(float(r["regret_pct"]), regret, TABLE_RTOL):
            problems.add("regret.csv", f"{key} regret {r['regret_pct']} != {regret!r}")
    for r in read_rows(out / "worst_case.csv"):
        worst = max(means[(g, int(r["n"]), r["method"])][0] for g in config["regimes"])
        if not _close(float(r["worst_mean_misfe"]), worst, TABLE_RTOL):
            problems.add("worst_case.csv", f"{r['method']} n={r['n']} != {worst!r}")
    for r in read_rows(out / "tuning.csv"):
        key = (r["regime"], int(r["n"]), r["method"])
        if not _close(float(r["mean_tuning"]), tunings[key], TABLE_RTOL):
            problems.add("tuning.csv", f"{key} mean tuning != {tunings[key]!r}")

    summary = json.loads((out / "summary.json").read_text())
    points = [(n, v) for (g, n, m), v in tunings.items() if m.startswith("tikhonov") and np.isfinite(v)]
    slope = float(np.polyfit(np.log10([p[0] for p in points]), [p[1] for p in points], 1)[0])
    reported = summary.get("rate_slope_log10_alpha_vs_log10_n")
    if reported is None or not _close(reported, slope, TABLE_RTOL):
        problems.add("summary.json", f"rate slope {reported!r} != {slope!r}")
    failed = sum(1 for r in rows if r["error"])
    if summary.get("failed_fits") != failed:
        problems.add("summary.json", f"failed_fits {summary.get('failed_fits')} != {failed}")

    by_key = {(r["regime"], int(r["n"]), r["method"], int(r["replication"])): r for r in rows}
    for i in range(oracle_cells):
        regime = config["regimes"][i % len(config["regimes"])]
        n = int(rng.choice(config["n_values"]))
        rep = int(rng.integers(config["replications"]))
        train, test = _simulated_paths(info, regime, n, rep)
        for method in config["methods"]:
            row = by_key[(regime, n, method, rep)]
            if row["error"]:
                continue
            kernel, problem = reference_kernel(train, method, float(row["tuning"]), "holdout")
            if problem:
                problems.add("oracle", f"({regime}, {n}, rep {rep}) {problem}")
            elif not _close(float(row["misfe"]), _misfe(kernel, test), VALUE_RTOL):
                problems.add("oracle", f"({regime}, {n}, rep {rep}) {method} misfe {row['misfe']}")
    return problems


# ---------------------------------------------------------------------------
# farkit rolling


def _prepared_curves(raw: str):
    from farkit.preprocess import (
        PipelineConfig,
        filter_and_interpolate,
        load_halfhourly_csv,
        preprocess_curves,
    )

    config = PipelineConfig()
    kept = filter_and_interpolate(load_halfhourly_csv(raw), config)
    prepared = preprocess_curves(kept, config)
    return kept, prepared


def rolling_problems(out: Path, info: dict, oracle_days: int, rng) -> list:
    """Check one `farkit rolling` output directory."""
    problems = Problems()
    meta = json.loads((out / "rolling.meta.json").read_text())
    if meta["kept_days"] != info["expected_kept_days"]:
        problems.add("kept days", f"{meta['kept_days']} != generator's {info['expected_kept_days']}")
        return problems
    kept, prepared = _prepared_curves(info["raw"])
    index = {d.isoformat(): t for t, d in enumerate(prepared.dates)}
    window, refit = info["window"], info["refit"]

    rows = read_rows(out / "forecasts.csv")
    by_method = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(r)
    if list(by_method) != info["methods"]:
        problems.add("forecasts.csv", f"methods {list(by_method)} != {info['methods']}")
        return problems
    skipped = {s["method"]: s["skipped_gaps"] for s in meta["summary"]}
    for method, mrows in by_method.items():
        if len(mrows) != meta["kept_days"] - window - skipped[method]:
            problems.add("forecasts.csv", f"{method}: {len(mrows)} rows")
        for r in mrows:
            step = index[r["date"]] - window
            if r["refit_flag"] != ("1" if step % refit == 0 else "0"):
                problems.add("forecasts.csv", f"{method} {r['date']} refit flag {r['refit_flag']}")

    for s in read_rows(out / "summary.csv"):
        ises = np.array([float(r["ise"]) for r in by_method[s["method"]]])
        ok = ises[np.isfinite(ises)]
        if not (
            _close(float(s["mean_ise"]), float(ok.mean()), TABLE_RTOL)
            and _close(float(s["median_ise"]), float(np.median(ok)), TABLE_RTOL)
            and int(s["evaluations"]) == ok.size
            and int(s["failures"]) == ises.size - ok.size
        ):
            problems.add("summary.csv", f"{s['method']} differs from forecasts.csv")

    transformed = np.sqrt(np.vstack([r.values for r in kept]))
    weekdays = np.array([r.date.weekday() for r in kept])
    for i, r in enumerate(read_rows(out / "weekday_means.csv")):
        want = transformed[weekdays == i].mean(axis=0)
        have = np.array([float(r[f"h{j:02d}"]) for j in range(1, 49)])
        if not np.allclose(have, want, rtol=TABLE_RTOL, atol=0):
            problems.add("weekday_means.csv", f"{r['weekday']} differs from the raw data")

    taus = [m for m in info["methods"] if m.startswith("fpca:")]
    median_k = [float(np.median([float(r["alpha_or_k"]) for r in by_method[m]])) for m in taus]
    if info["check_distinct_k"] and any(b <= a for a, b in zip(median_k, median_k[1:])):
        problems.add("inputs", f"threshold methods do not resolve to distinct K: {median_k}")

    values = prepared.sample.values
    w = trapezoid_weights(values.shape[1])
    by_day = {(r["method"], r["date"]): r for r in rows}
    first = by_method[info["methods"][0]]
    for pick in rng.choice(len(first), size=min(oracle_days, len(first)), replace=False):
        date = first[int(pick)]["date"]
        t = index[date]
        step = t - window
        fit_t = window + step - step % refit
        train = values[fit_t - window : fit_t]
        for method in info["methods"]:
            row = by_day.get((method, date))
            if row is None:
                problems.add("oracle", f"{date} has no {method} forecast")
                continue
            if not np.isfinite(float(row["ise"])):
                continue
            kernel, problem = reference_kernel(train, method, float(row["alpha_or_k"]), "k-fold-forward")
            if problem:
                problems.add("oracle", f"{date} {problem}")
                continue
            ise = float(np.mean((kernel @ (w * values[t - 1]) - values[t]) ** 2))
            if not _close(float(row["ise"]), ise, VALUE_RTOL):
                problems.add("oracle", f"{date} {method} ise {row['ise']} != {ise!r}")
    return problems


# ---------------------------------------------------------------------------
# verify and the stored reference


def verify_problems(out: Path, exit_code: int, reference_names) -> list:
    problems = Problems()
    report = json.loads((out / "verify.json").read_text())
    names = [c["name"] for c in report["checks"]]
    for c in report["checks"]:
        if not c["passed"]:
            problems.add("verify", f"check failed: {c['name']} ({c['detail']})")
    missing = set(reference_names) - set(names)
    if missing:
        problems.add("verify", f"checks missing: {sorted(missing)}")
    if exit_code != 0:
        problems.add("verify", f"exit code {exit_code}")
    return problems


def canary_values(kind: str, out: Path) -> dict:
    """The values of a canary run that are compared with the reference."""
    if kind == "benchmark":
        rows = read_rows(out / "records.csv")
        summary = json.loads((out / "summary.json").read_text())
        return {
            "rows": [
                [r["regime"], int(r["n"]), r["method"], int(r["replication"]),
                 _json_float(r["misfe"]), _json_float(r["tuning"])]
                for r in rows
            ],
            "rate_slope": summary["rate_slope_log10_alpha_vs_log10_n"],
        }
    rows = read_rows(out / "forecasts.csv")
    meta = json.loads((out / "rolling.meta.json").read_text())
    return {
        "rows": [
            [r["date"], r["method"], _json_float(r["ise"]), _json_float(r["alpha_or_k"])]
            for r in rows
        ],
        "kept_days": meta["kept_days"],
    }


def _json_float(text: str):
    value = float(text)
    return None if math.isnan(value) else value


def reference_problems(got: dict, want: dict) -> list:
    """Compare canary values with stored reference values of the same canary."""
    problems = Problems()
    for key in ("rate_slope", "kept_days"):
        if key in want and not _close(float(got[key]), float(want[key]), ALPHA_RTOL):
            problems.add("reference", f"{key} {got[key]!r} != {want[key]!r}")
    got_rows = {tuple(r[:-2]): r[-2:] for r in got["rows"]}
    want_rows = {tuple(r[:-2]): r[-2:] for r in want["rows"]}
    if got_rows.keys() != want_rows.keys():
        problems.add("reference", f"{len(got_rows)} rows, reference has {len(want_rows)}")
        return problems
    for key, pair in want_rows.items():
        value, tuning = (math.nan if v is None else v for v in pair)
        g_value, g_tuning = (math.nan if v is None else v for v in got_rows[key])
        method = key[2] if len(key) == 4 else key[1]
        if not _close(g_value, value, VALUE_RTOL):
            problems.add("reference", f"{key} value {g_value!r} != {value!r}")
        if not _tuning_close(method, g_tuning, tuning):
            problems.add("reference", f"{key} tuning {g_tuning!r} != {tuning!r}")
    return problems
