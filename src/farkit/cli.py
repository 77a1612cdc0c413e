"""Command-line interface: simulate, fit, benchmark, rolling, verify.

Every command writes its primary artifacts as CSV plus a JSON metadata
sidecar carrying ``schema_version`` and the fully resolved configuration.
Numeric CSV cells use the shortest representation that parses back to the
exact double, so identical configs and seeds give byte-identical primary
outputs; wall-clock timings are kept out of those files.

Output files by command:

* ``simulate``  -> sample.csv (n rows x M columns), sample.meta.json
* ``fit``       -> kernel.csv (M x M), fit.meta.json (resolved tuning, CV curve)
* ``benchmark`` -> records.csv  (regime,n,method,replication,misfe,tuning,error)
                   regret.csv   (regime,n,method,mean_misfe,count,regret_pct)
                   worst_case.csv (method,n,worst_mean_misfe)
                   tuning.csv   (regime,n,method,mean_tuning)
                   summary.json (rate slope, wall clock, stage seconds, span ranks,
                   single-member refits, CV grid-edge selections per regime,
                   resolved config)
* ``rolling``   -> forecasts.csv (date,method,ise,alpha_or_k,refit_flag)
                   summary.csv  (method,mean_ise,median_ise,regret_pct,failures)
                   weekday_means.csv (weekday,h01..h48), rolling.meta.json
                   (settings, failures, stage seconds, single-member refits,
                   CV grid-edge selections)
* ``verify``    -> verify.json; exit status 0 only if every check passes
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError
from .evaluate import (
    BenchmarkConfig,
    RunLog,
    TheoryProbe,
    fit_methods,
    mean_misfe_table,
    operator_error_slope,
    parse_method,
    rate_slope_from_report,
    regret_table,
    run_benchmark,
    run_verification_suite,
    tuning_summary,
    worst_case_table,
)
from .grid import make_trapezoid_grid, uniform_grid
from .moments import FunctionalSample, span_coordinates
from .preprocess import (
    CSV_HEADER,
    PipelineConfig,
    RollingConfig,
    filter_and_interpolate,
    load_halfhourly_csv,
    preprocess_curves,
    rolling_forecast,
)
from .simulate import REGIMES, draw_regime_operator, simulate_far1

SCHEMA_VERSION = 1


def _fmt(value) -> str:
    """Shortest exact decimal form of a number for CSV cells."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows(rows)


def _csv_cell(text: str) -> str:
    """``text`` as the csv writer of ``_write_csv`` renders it inside a row, quoted if need be."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


def _write_matrix(path: Path, matrix) -> None:
    _write_csv(path, None, [[_fmt(v) for v in row] for row in np.atleast_2d(matrix)])


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_meta(path: Path) -> dict | None:
    if not path.exists():
        return None
    with open(path) as handle:
        meta = json.load(handle)
    version = meta.get("schema_version") if isinstance(meta, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version {version!r}")
    return meta


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    if args.regime not in REGIMES:
        print(f"error: unknown regime {args.regime!r}; choose from I, II, III", file=sys.stderr)
        return 2
    if args.n < 2:
        print("error: --n must be at least 2", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    out = _out_dir(args)
    spec = REGIMES[args.regime]
    operator = draw_regime_operator(spec, args.seed)
    sample = simulate_far1(operator, spec, args.n, args.seed)
    _write_matrix(out / "sample.csv", sample.values)
    _write_json(
        out / "sample.meta.json",
        {
            "kind": "functional_sample",
            "regime": args.regime,
            "n": args.n,
            "seed": args.seed,
            "grid_points": [float(u) for u in sample.grid.points],
            "spectral_radius": operator.spectral_radius,
        },
    )
    print(f"wrote {args.n} curves on {sample.grid.size} grid points to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit


def _load_sample(path: Path) -> FunctionalSample:
    with warnings.catch_warnings():
        # an input without rows is reported as an error below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        values = np.loadtxt(path, delimiter=",", ndmin=2)
    if values.size == 0:
        raise ValueError(f"{path}: no curves")
    sidecar = path.with_suffix(".meta.json")
    points = (_read_meta(sidecar) or {}).get("grid_points")
    if points is None:
        return FunctionalSample(values, uniform_grid(values.shape[1]))
    # exact types, as in a benchmark config: JSON true/false parse to bool; an
    # integer beyond the doubles would overflow in the grid's float array
    if not (isinstance(points, list)
            and all(type(u) in (int, float) and abs(u) <= sys.float_info.max for u in points)):
        raise ValueError(f"{sidecar}: grid_points must be a list of numbers")
    return FunctionalSample(values, make_trapezoid_grid(points))


def cmd_fit(args) -> int:
    """Fit one method by ``fit_methods``; a bad method id, input or sidecar, or failed fit exits 1."""
    out = _out_dir(args)
    try:
        method = parse_method(args.method)
        coords = span_coordinates(_load_sample(Path(args.input)))
    except (ValueError, OSError) as exc:
        error = str(exc)
    else:
        (fit,) = fit_methods(coords, [method], cv_scheme=args.cv_scheme)
        error = fit.errors[0]
    if error is not None:
        _write_json(out / "fit.meta.json", {"kind": "error", "error": error})
        print(f"error: {error}", file=sys.stderr)
        return 1
    _write_matrix(out / "kernel.csv", coords.kernel(fit.matrices[0]))
    value = fit.tuning[0].item()
    if method.kind == "fpca":
        tuning = {"k": int(value), **({} if method.tau is None else {"tau": method.tau})}
    else:
        tuning = {"alpha": value, **({"selected_by": args.cv_scheme} if method.cv else {})}
    meta = {
        "kind": "operator_fit",
        "method": args.method,
        "tuning": tuning,
    }
    cv = fit.cv
    if cv is not None:
        meta["cv_scheme"] = cv.scheme
        meta["cv_curve"] = [[a, l] for a, l in zip(cv.alphas[0].tolist(), cv.losses[0].tolist())]
    _write_json(out / "fit.meta.json", meta)
    print(f"fit {args.method}: tuning {tuning}")
    return 0


# ---------------------------------------------------------------------------
# benchmark


def _load_benchmark_config(args) -> BenchmarkConfig:
    data = {}
    if args.config:
        with open(args.config) as handle:
            data = json.load(handle)
    config = BenchmarkConfig.from_dict(data)
    # command-line flags override config-file values override defaults
    flags = dict(replications=args.replications, master_seed=args.seed)
    return replace(config, **{key: value for key, value in flags.items() if value is not None})


def write_records_csv(report, path: Path) -> None:
    """One row per entry of the report's columns, in their order.

    Timing stays out, so reruns are byte-identical.
    """
    config = report.config
    # rows are streamed from the flattened columns; repr of a float is its _fmt
    keys = product(config.regimes, map(str, config.n_values),
                   map(str, range(config.replications)), config.methods)
    cells = zip(keys, map(repr, report.misfe.ravel().tolist()),
                map(repr, report.tuning.ravel().tolist()), report.errors.ravel().tolist())
    _write_csv(
        path,
        ["regime", "n", "method", "replication", "misfe", "tuning", "error"],
        (
            (regime, n, method, replication, misfe, tuning, error or "")
            for (regime, n, replication, method), misfe, tuning, error in cells
        ),
    )


def _failures_by_class(errors) -> dict:
    """Error texts counted by their class prefix; a None (no error) is not counted."""
    failures = Counter(error.partition(":")[0] for error in errors if error is not None)
    return dict(sorted(failures.items()))


def cmd_benchmark(args) -> int:
    try:
        config = _load_benchmark_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    report = run_benchmark(config)
    log = report.log
    # each table is a dict in config order, which is the order of its file's rows
    means, tunings = mean_misfe_table(report), tuning_summary(report)
    regrets, worst = regret_table(means), worst_case_table(means)
    try:
        slope = rate_slope_from_report(tunings)
    except ValueError:
        slope = None  # fewer than two sample sizes, or no cross-validated cells
    write_records_csv(report, out / "records.csv")
    _write_csv(
        out / "regret.csv",
        ["regime", "n", "method", "mean_misfe", "count", "regret_pct"],
        [
            [regime, _fmt(n), method, _fmt(mean), _fmt(count), _fmt(regrets[(regime, n, method)])]
            for (regime, n, method), (mean, _, count) in means.items()
        ],
    )
    _write_csv(
        out / "worst_case.csv",
        ["method", "n", "worst_mean_misfe"],
        [[m, _fmt(n), _fmt(value)] for (m, n), value in worst.items()],
    )
    _write_csv(
        out / "tuning.csv",
        ["regime", "n", "method", "mean_tuning"],
        [[regime, _fmt(n), method, _fmt(value)] for (regime, n, method), value in tunings.items()],
    )
    # the laps before writing cover the run
    wall_clock = sum(log.stage_seconds.values())
    log.lap("write")
    _write_json(
        out / "summary.json",
        {
            "kind": "benchmark_summary",
            "config": config.to_dict(),
            "rate_slope_log10_alpha_vs_log10_n": slope,
            "wall_clock_seconds": wall_clock,
            "failed_fits": int(report.failed.sum()),
            "failures_by_class": _failures_by_class(report.errors.flat),
            "span_ranks": log.span_ranks,
            "single_member_refits": log.single_member_refits,
            "cv_edge_selections": log.cv_edge_selections,
            "stage_seconds": log.stage_seconds,
        },
    )
    slope_text = "n/a" if slope is None else f"{slope:.3f}"
    print(
        f"benchmark: {report.misfe.size} records, "
        f"rate slope {slope_text}, wall clock {wall_clock:.1f}s"
    )
    return 0


# ---------------------------------------------------------------------------
# rolling


def _regret_pct(mean: float, best: float) -> float:
    """Percent excess over the best mean; NaN when the best is zero or missing."""
    if not (np.isfinite(best) and best > 0):
        return float("nan")
    return 100.0 * (mean - best) / best


def cmd_rolling(args) -> int:
    pipeline = PipelineConfig()
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        config = RollingConfig(
            window=args.window,
            refit_interval=args.refit,
            methods=methods,
            gap_policy=args.gap_policy,
        )
        log = RunLog()
        raw = load_halfhourly_csv(args.raw)
        log.lap("load")
        complete = filter_and_interpolate(raw, pipeline)
        del raw  # the unfiltered readings are not needed again
        log.lap("filter")
        prepared = preprocess_curves(complete, pipeline)
        log.lap("smooth")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = rolling_forecast(prepared.sample, config, dates=prepared.dates, log=log)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args)

    summary = []
    for label, ises, errors in zip(methods, result.ise, result.errors):
        scored = ises[np.equal(errors, None)]
        failures = _failures_by_class(errors)
        summary.append(
            {
                "method": label,
                "mean_ise": float(scored.mean()) if scored.size else float("nan"),
                "median_ise": float(np.median(scored)) if scored.size else float("nan"),
                "evaluations": int(scored.size),
                "failures": sum(failures.values()),
                "failures_by_class": failures,
                "skipped_gaps": result.skipped_gaps,
            }
        )
        if parse_method(label).cv:
            summary[-1]["cv_edge_selections"] = log.cv_edge_selections[label]

    best = min((s["mean_ise"] for s in summary if np.isfinite(s["mean_ise"])), default=float("nan"))
    for s in summary:
        s["regret_pct"] = _regret_pct(s["mean_ise"], best)

    # one joined text per method, method-major: dates, the repr of a float (its
    # _fmt) and the flags never need quoting, and each label is rendered once
    dates = [prepared.dates[t].isoformat() for t in result.days.tolist()]
    flags = ["1" if refit else "0" for refit in result.refit.tolist()]
    with open(out / "forecasts.csv", "w", newline="\n") as handle:
        handle.write("date,method,ise,alpha_or_k,refit_flag\n")
        for label, ises, tunings in zip(methods, result.ise.tolist(), result.tuning.tolist()):
            cell = _csv_cell(label)
            handle.write("".join(
                f"{date},{cell},{ise!r},{tuning!r},{flag}\n"
                for date, ise, tuning, flag in zip(dates, ises, tunings, flags)
            ))
    _write_csv(
        out / "summary.csv",
        ["method", "mean_ise", "median_ise", "regret_pct", "evaluations", "failures"],
        [
            [s["method"], _fmt(s["mean_ise"]), _fmt(s["median_ise"]), _fmt(s["regret_pct"]), _fmt(s["evaluations"]), _fmt(s["failures"])]
            for s in summary
        ],
    )
    weekday_rows = [
        [name] + [_fmt(v) for v in prepared.weekday_means[i]]
        for i, name in enumerate(
            ["monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"]
        )
    ]
    _write_csv(
        out / "weekday_means.csv",
        ["weekday"] + CSV_HEADER[1:],
        weekday_rows,
    )
    log.lap("write")
    _write_json(
        out / "rolling.meta.json",
        {
            "kind": "rolling_summary",
            "raw_file": str(args.raw),
            "kept_days": len(complete),
            "window": args.window,
            "refit_interval": args.refit,
            "gap_policy": args.gap_policy,
            "methods": methods,
            "span_rank": result.span_rank,
            "single_member_refits": log.single_member_refits,
            "stage_seconds": log.stage_seconds,
            "summary": summary,
        },
    )
    print(f"rolling: {len(complete)} curves, {len(methods)} methods -> {out}")
    return 0


# ---------------------------------------------------------------------------
# verify


# the parameters of TheoryProbe.diagonal that a probe may set, by type
_PROBE_PARAMETERS = {"beta": float, "n_components": int, "eigen_decay": float, "rho": float,
                     "eigen_scale": float}


def _load_probes(path) -> list:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not isinstance(data.get("probes"), list):
        raise ValueError("probe config must be a JSON object with a nonempty 'probes' list")
    if not data["probes"]:
        raise ValueError("probe list is empty")
    probes = []
    for entry in data["probes"]:
        if not isinstance(entry, dict):
            raise ValueError(f"probe {entry!r} is not a JSON object")
        for key, value in entry.items():
            kind = _PROBE_PARAMETERS.get(key)
            if kind is None:
                raise ValueError(f"probe {entry!r}: unknown key {key!r}")
            # exact types, as in a benchmark config: JSON true/false parse to bool
            if type(value) not in (int, kind):
                wanted = "an integer" if kind is int else "a number"
                raise ValueError(f"probe {entry!r}: {key!r} is not {wanted}")
        if "beta" not in entry:
            raise ValueError(f"probe {entry!r}: 'beta' is required")
        try:
            params = {key: _PROBE_PARAMETERS[key](value) for key, value in entry.items()}
        except OverflowError:
            raise ValueError(f"probe {entry!r}: every parameter must be a finite number") from None
        probes.append(TheoryProbe.diagonal(**params))
    return probes


def cmd_verify(args) -> int:
    out = _out_dir(args)
    try:
        probes = _load_probes(args.probes) if args.probes else None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = run_verification_suite(probes)
    slope, _ = operator_error_slope()
    payload = {
        "kind": "verification_report",
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "estimation_error_slope_diagnostic": slope,
    }
    _write_json(out / "verify.json", payload)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}  ({c.detail})")
    print(f"diagnostic: estimation-error slope vs n = {slope:.3f} (reported only)")
    if failed:
        print(f"{len(failed)} check(s) failed: {[c.name for c in failed]}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farkit",
        description="Functional AR(1) estimation: simulate, fit, benchmark, roll, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a regime path to CSV")
    p.add_argument("--regime", required=True, help="regime id: I, II, or III")
    p.add_argument("--n", type=int, required=True, help="number of retained curves")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit one estimator to a sample CSV")
    p.add_argument("--input", required=True, help="sample CSV (rows = curves)")
    p.add_argument(
        "--method",
        required=True,
        help="fpca:TAU | fpca:K=INT | tikhonov:ALPHA | tikhonov:cv",
    )
    p.add_argument("--cv-scheme", default="holdout", choices=["holdout", "k-fold-forward"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("benchmark", help="run the Monte Carlo benchmark grid")
    p.add_argument("--config", help="JSON config; omitted keys take defaults")
    p.add_argument("--replications", type=int, help="override replication count")
    p.add_argument("--seed", type=int, help="override master seed")
    # retired: runs are sequential; 1 is still accepted from older callers
    p.add_argument("--threads", type=int, choices=[1], help=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("rolling", help="preprocess raw half-hourly data and backtest")
    p.add_argument("--raw", required=True, help="CSV with header date,h01..h48")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=RollingConfig.window)
    p.add_argument("--refit", type=int, default=RollingConfig.refit_interval)
    p.add_argument(
        "--methods", default=",".join(BenchmarkConfig.methods), help="comma-separated estimator ids"
    )
    p.add_argument(
        "--gap-policy",
        default=RollingConfig.gap_policy,
        choices=["exclude-cross-gap", "contiguous"],
    )
    p.set_defaults(func=cmd_rolling)

    p = sub.add_parser("verify", help="run numerical self-checks")
    p.add_argument("--out", required=True)
    p.add_argument("--probes", help="JSON file with a 'probes' list of bias probes")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops an option value of exactly "--" and passes on an empty list
    if [] in vars(args).values():
        parser.error("an option value cannot be '--'")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
